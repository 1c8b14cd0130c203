#include "wmcast/exact/exact_mla.hpp"

#include <algorithm>
#include <limits>

#include "wmcast/core/solve.hpp"
#include "wmcast/util/assert.hpp"

namespace wmcast::exact {

namespace {

constexpr double kTol = 1e-9;

struct Searcher {
  const setcover::SetSystem& sys;
  BbClock clock;
  // element -> indices of usable sets containing it
  std::vector<std::vector<int>> sets_of;
  // static per-element cost-share lower bound: min over S∋e of c(S)/|S|
  std::vector<double> share;

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_chosen;
  std::vector<int> stack;

  Searcher(const setcover::SetSystem& s, const BbLimits& limits)
      : sys(s), clock(limits) {}

  double lower_bound(const util::DynBitset& uncovered) const {
    double lb = 0.0;
    uncovered.for_each([&](int e) { lb += share[static_cast<size_t>(e)]; });
    return lb;
  }

  void dfs(util::DynBitset uncovered, double cost) {
    if (!clock.tick()) return;
    if (uncovered.none()) {
      if (cost < best_cost - kTol) {
        best_cost = cost;
        best_chosen = stack;
      }
      return;
    }
    if (cost + lower_bound(uncovered) >= best_cost - kTol) return;

    // Branch on the uncovered element with the fewest covering sets.
    int pivot = -1;
    size_t fewest = std::numeric_limits<size_t>::max();
    uncovered.for_each([&](int e) {
      const size_t k = sets_of[static_cast<size_t>(e)].size();
      if (k < fewest) {
        fewest = k;
        pivot = e;
      }
    });
    WMCAST_ASSERT(pivot >= 0, "exact_mla: uncovered element with no covering set");

    // Try covering sets in order of increasing cost per newly covered element
    // so good incumbents appear early.
    std::vector<std::pair<double, int>> order;
    for (const int j : sets_of[static_cast<size_t>(pivot)]) {
      const int gain = sys.set(j).members.and_count(uncovered);
      order.emplace_back(sys.set(j).cost / std::max(gain, 1), j);
    }
    std::sort(order.begin(), order.end());

    for (const auto& [key, j] : order) {
      (void)key;
      if (clock.exhausted()) return;
      util::DynBitset child = uncovered;
      child.andnot_assign(sys.set(j).members);
      stack.push_back(j);
      dfs(std::move(child), cost + sys.set(j).cost);
      stack.pop_back();
    }
  }
};

}  // namespace

ExactCoverResult exact_min_cost_cover(const setcover::SetSystem& sys,
                                      const BbLimits& limits) {
  Searcher s(sys, limits);

  // Dominated-set elimination: drop any set that is a subset of a no-more-
  // expensive other set. Keeps optima intact and shrinks the branching factor.
  std::vector<bool> dominated(static_cast<size_t>(sys.n_sets()), false);
  for (int i = 0; i < sys.n_sets(); ++i) {
    for (int j = 0; j < sys.n_sets(); ++j) {
      if (i == j || dominated[static_cast<size_t>(i)]) continue;
      const auto& a = sys.set(i);
      const auto& b = sys.set(j);
      if (dominated[static_cast<size_t>(j)]) continue;
      if (a.members.is_subset_of(b.members) &&
          (a.cost > b.cost + kTol ||
           (std::abs(a.cost - b.cost) <= kTol && (a.members.count() < b.members.count() || i > j)))) {
        dominated[static_cast<size_t>(i)] = true;
      }
    }
  }

  s.sets_of.assign(static_cast<size_t>(sys.n_elements()), {});
  s.share.assign(static_cast<size_t>(sys.n_elements()), 0.0);
  std::vector<double> min_share(static_cast<size_t>(sys.n_elements()),
                                std::numeric_limits<double>::infinity());
  for (int j = 0; j < sys.n_sets(); ++j) {
    if (dominated[static_cast<size_t>(j)]) continue;
    const auto& cs = sys.set(j);
    const double per_element = cs.cost / std::max(cs.members.count(), 1);
    cs.members.for_each([&](int e) {
      s.sets_of[static_cast<size_t>(e)].push_back(j);
      min_share[static_cast<size_t>(e)] =
          std::min(min_share[static_cast<size_t>(e)], per_element);
    });
  }
  sys.coverable().for_each([&](int e) { s.share[static_cast<size_t>(e)] = min_share[static_cast<size_t>(e)]; });

  // Warm start from the greedy cover.
  const core::CoverageEngine eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;
  const auto greedy = core::greedy_cover(eng, ws);
  if (greedy.complete) {
    s.best_cost = greedy.total_cost;
    s.best_chosen = greedy.chosen;
  }

  s.dfs(sys.coverable(), 0.0);

  ExactCoverResult res;
  res.chosen = std::move(s.best_chosen);
  res.cost = s.best_cost == std::numeric_limits<double>::infinity() ? 0.0 : s.best_cost;
  res.status = s.clock.status();
  res.nodes = s.clock.nodes();
  return res;
}

}  // namespace wmcast::exact
