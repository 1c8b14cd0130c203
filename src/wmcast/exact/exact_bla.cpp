#include "wmcast/exact/exact_bla.hpp"

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
  std::vector<std::vector<int>> sets_of;

  double best_max = std::numeric_limits<double>::infinity();
  std::vector<int> best_chosen;
  std::vector<int> stack;
  std::vector<double> group_cost;

  Searcher(const setcover::SetSystem& s, const BbLimits& limits)
      : sys(s), clock(limits),
        group_cost(static_cast<size_t>(s.n_groups()), 0.0) {}

  /// Admissible bound: every uncovered element forces at least its cheapest
  /// "resulting max" given current group costs.
  double lower_bound(const util::DynBitset& uncovered, double cur_max) const {
    double lb = cur_max;
    uncovered.for_each([&](int e) {
      double elem_best = std::numeric_limits<double>::infinity();
      for (const int j : sets_of[static_cast<size_t>(e)]) {
        const auto& cs = sys.set(j);
        const double resulting =
            std::max(cur_max, group_cost[static_cast<size_t>(cs.group)] + cs.cost);
        elem_best = std::min(elem_best, resulting);
      }
      lb = std::max(lb, elem_best);
    });
    return lb;
  }

  void dfs(util::DynBitset uncovered, double cur_max) {
    if (!clock.tick()) return;
    if (uncovered.none()) {
      if (cur_max < best_max - kTol) {
        best_max = cur_max;
        best_chosen = stack;
      }
      return;
    }
    if (lower_bound(uncovered, cur_max) >= best_max - kTol) return;

    int pivot = -1;
    size_t fewest = std::numeric_limits<size_t>::max();
    uncovered.for_each([&](int e) {
      const size_t k = sets_of[static_cast<size_t>(e)].size();
      if (k < fewest) {
        fewest = k;
        pivot = e;
      }
    });
    WMCAST_ASSERT(pivot >= 0, "exact_bla: uncovered element with no covering set");

    // Children ordered by the max-load they would produce, then by coverage.
    std::vector<std::pair<double, int>> order;
    for (const int j : sets_of[static_cast<size_t>(pivot)]) {
      const auto& cs = sys.set(j);
      const double resulting =
          std::max(cur_max, group_cost[static_cast<size_t>(cs.group)] + cs.cost);
      order.emplace_back(resulting, j);
    }
    std::sort(order.begin(), order.end());

    for (const auto& [resulting, j] : order) {
      if (clock.exhausted()) return;
      if (resulting >= best_max - kTol) break;  // order is ascending
      const auto& cs = sys.set(j);
      util::DynBitset child = uncovered;
      child.andnot_assign(cs.members);
      group_cost[static_cast<size_t>(cs.group)] += cs.cost;
      stack.push_back(j);
      dfs(std::move(child), resulting);
      stack.pop_back();
      group_cost[static_cast<size_t>(cs.group)] -= cs.cost;
    }
  }
};

}  // namespace

ExactMinMaxResult exact_min_max_cover(const setcover::SetSystem& sys,
                                      const BbLimits& limits) {
  Searcher s(sys, limits);
  s.sets_of.assign(static_cast<size_t>(sys.n_elements()), {});
  for (int j = 0; j < sys.n_sets(); ++j) {
    sys.set(j).members.for_each(
        [&](int e) { s.sets_of[static_cast<size_t>(e)].push_back(j); });
  }

  // Warm start from the SCG approximation.
  const core::CoverageEngine eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;
  const auto scg = core::scg_cover(eng, ws);
  if (scg.feasible) {
    s.best_max = scg.max_group_cost;
    s.best_chosen = scg.chosen;
  }

  s.dfs(sys.coverable(), 0.0);

  ExactMinMaxResult res;
  res.chosen = std::move(s.best_chosen);
  res.max_group_cost =
      s.best_max == std::numeric_limits<double>::infinity() ? 0.0 : s.best_max;
  res.status = s.clock.status();
  res.nodes = s.clock.nodes();
  return res;
}

}  // namespace wmcast::exact
