#include "wmcast/exact/exact_mnu.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "wmcast/core/solve.hpp"
#include "wmcast/util/assert.hpp"

namespace wmcast::exact {

namespace {

constexpr double kTol = 1e-9;
// Per-group configuration cap: beyond this the groupwise searcher falls back
// to the set-wise searcher (never hit on paper-scale instances, where tight
// budgets admit only a handful of sets per AP).
constexpr size_t kMaxConfigs = 20000;

// ---------------------------------------------------------------------------
// Groupwise searcher: enumerate, per group (AP), every maximal coverage its
// budget allows ("configurations"), then branch over groups. At tight
// budgets each group has few configurations, and the branching factor per
// level equals that count — far stronger than include/exclude over sets.
// ---------------------------------------------------------------------------

struct GroupwiseSearcher {
  const setcover::SetSystem& sys;
  BbClock clock;

  struct Config {
    util::DynBitset members;  // union of the chosen sets
    std::vector<int> sets;
  };
  // configs[g]: feasible, union-maximal configurations (always includes the
  // empty one as the last entry).
  std::vector<std::vector<Config>> configs;
  std::vector<int> group_order;              // branch order over groups
  std::vector<util::DynBitset> suffix_union; // union over groups order[k..]

  int best_covered = -1;
  std::vector<int> best_chosen;
  std::vector<const Config*> stack;

  GroupwiseSearcher(const setcover::SetSystem& s, const BbLimits& limits)
      : sys(s), clock(limits) {}

  /// Enumerates a group's feasible set combinations; returns false when the
  /// cap is exceeded.
  bool enumerate_group(int g, double budget) {
    const auto& set_ids = sys.group_sets(g);
    std::vector<int> usable;
    for (const int j : set_ids) {
      if (sys.set(j).cost <= budget + kTol) usable.push_back(j);
    }
    // DFS over usable sets (include/exclude) within the budget, collecting
    // unions. Nested sets of one (AP, session) make many combinations
    // redundant; the maximality filter below removes them.
    std::vector<Config> found;
    std::vector<int> chosen;
    util::DynBitset current(sys.n_elements());
    bool ok = true;
    std::function<void(size_t, double)> dfs = [&](size_t i, double remaining) {
      if (!ok) return;
      if (found.size() > 4 * kMaxConfigs) {  // guard the enumeration itself
        ok = false;
        return;
      }
      if (i == usable.size()) {
        found.push_back(Config{current, chosen});
        return;
      }
      // Exclude usable[i].
      dfs(i + 1, remaining);
      // Include usable[i] if it fits.
      const auto& cs = sys.set(usable[i]);
      if (cs.cost <= remaining + kTol) {
        const util::DynBitset saved = current;
        current.or_assign(cs.members);
        chosen.push_back(usable[i]);
        dfs(i + 1, remaining - cs.cost);
        chosen.pop_back();
        current = saved;
      }
    };
    dfs(0, budget);
    if (!ok) return false;

    // Keep only union-maximal configurations (coverage is the only
    // objective, so a config whose union is contained in another's is
    // useless; cost no longer matters once feasible).
    std::sort(found.begin(), found.end(), [](const Config& a, const Config& b) {
      return a.members.count() > b.members.count();
    });
    std::vector<Config> maximal;
    for (auto& c : found) {
      bool dominated = false;
      for (const auto& m : maximal) {
        if (c.members.is_subset_of(m.members)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) maximal.push_back(std::move(c));
      if (maximal.size() > kMaxConfigs) return false;
    }
    // The empty config survives only if the group has no usable sets; make
    // sure it is always available as the "skip this group" branch.
    if (maximal.empty() || maximal.back().members.any()) {
      maximal.push_back(Config{util::DynBitset(sys.n_elements()), {}});
    }
    configs[static_cast<size_t>(g)] = std::move(maximal);
    return true;
  }

  void dfs(size_t k, const util::DynBitset& covered, int covered_count) {
    if (!clock.tick()) return;
    if (covered_count > best_covered) {
      best_covered = covered_count;
      best_chosen.clear();
      for (const Config* c : stack) {
        best_chosen.insert(best_chosen.end(), c->sets.begin(), c->sets.end());
      }
    }
    if (k == group_order.size()) return;

    // Bound: everything the remaining groups could still cover.
    util::DynBitset potential = suffix_union[k];
    potential.andnot_assign(covered);
    if (covered_count + potential.count() <= best_covered) return;

    const int g = group_order[k];
    // Children by decreasing marginal gain; identical-gain tail pruned by
    // the bound at the next level.
    std::vector<std::pair<int, const Config*>> children;
    children.reserve(configs[static_cast<size_t>(g)].size());
    for (const auto& c : configs[static_cast<size_t>(g)]) {
      children.emplace_back(c.members.and_count(potential), &c);
    }
    std::sort(children.begin(), children.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    bool tried_zero_gain = false;
    for (const auto& [gain, c] : children) {
      if (clock.exhausted()) return;
      // All zero-gain children are equivalent (they add nothing): descend
      // through at most one of them (the empty config is always among them).
      if (gain == 0) {
        if (tried_zero_gain) break;
        tried_zero_gain = true;
      }
      util::DynBitset child = covered;
      child.or_assign(c->members);
      stack.push_back(c);
      dfs(k + 1, child, covered_count + gain);
      stack.pop_back();
    }
  }
};

// ---------------------------------------------------------------------------
// Fallback set-wise searcher (include/exclude over sets with union +
// fractional-knapsack bounds) for instances whose groups are too rich to
// enumerate.
// ---------------------------------------------------------------------------

struct SetwiseSearcher {
  const setcover::SetSystem& sys;
  BbClock clock;
  std::vector<int> order;
  std::vector<util::DynBitset> suffix;
  std::vector<double> budgets;
  struct GroupSet {
    size_t pos;
    double cost;
    int count;
  };
  std::vector<std::vector<GroupSet>> group_suffix;

  int best_covered = -1;
  std::vector<int> best_chosen;
  std::vector<int> stack;
  std::vector<double> group_cost;

  SetwiseSearcher(const setcover::SetSystem& s, const BbLimits& limits)
      : sys(s), clock(limits), group_cost(static_cast<size_t>(s.n_groups()), 0.0) {}

  double group_knapsack(int g, size_t k) const {
    double budget = budgets[static_cast<size_t>(g)] - group_cost[static_cast<size_t>(g)];
    if (budget <= kTol) return 0.0;
    double value = 0.0;
    for (const auto& gs : group_suffix[static_cast<size_t>(g)]) {
      if (gs.pos < k) continue;
      if (gs.cost <= budget) {
        value += gs.count;
        budget -= gs.cost;
      } else {
        value += gs.count * budget / gs.cost;
        break;
      }
    }
    return value;
  }

  void dfs(size_t k, const util::DynBitset& covered, int covered_count) {
    if (!clock.tick()) return;
    if (covered_count > best_covered) {
      best_covered = covered_count;
      best_chosen = stack;
    }
    if (k == order.size()) return;

    util::DynBitset potential = suffix[k];
    potential.andnot_assign(covered);
    if (covered_count + potential.count() <= best_covered) return;

    double knapsack = 0.0;
    for (int g = 0; g < sys.n_groups(); ++g) knapsack += group_knapsack(g, k);
    // Coverage is integral, so the fractional knapsack value can be floored.
    if (covered_count + std::floor(knapsack + kTol) <= best_covered) return;

    const int j = order[k];
    const auto& cs = sys.set(j);
    const auto g = static_cast<size_t>(cs.group);

    if (group_cost[g] + cs.cost <= budgets[g] + kTol) {
      const int gain = cs.members.and_count(potential);
      if (gain > 0) {
        util::DynBitset child = covered;
        child.or_assign(cs.members);
        group_cost[g] += cs.cost;
        stack.push_back(j);
        dfs(k + 1, child, covered_count + gain);
        stack.pop_back();
        group_cost[g] -= cs.cost;
      }
    }
    if (clock.exhausted()) return;
    dfs(k + 1, covered, covered_count);
  }
};

}  // namespace

ExactMnuResult exact_max_coverage(const setcover::SetSystem& sys,
                                  std::span<const double> group_budgets,
                                  const BbLimits& limits) {
  util::require(static_cast<int>(group_budgets.size()) == sys.n_groups(),
                "exact_max_coverage: one budget per group required");

  // Warm start from the MCG greedy (both searchers start from it).
  const core::CoverageEngine eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;
  const auto greedy = core::mcg_cover(eng, ws, group_budgets);
  const int warm_covered = greedy.covered.count();

  // Try the groupwise searcher first.
  {
    GroupwiseSearcher s(sys, limits);
    s.configs.assign(static_cast<size_t>(sys.n_groups()), {});
    bool enumerable = true;
    for (int g = 0; g < sys.n_groups() && enumerable; ++g) {
      enumerable = s.enumerate_group(g, group_budgets[static_cast<size_t>(g)]);
    }
    if (enumerable) {
      // Branch order: groups by decreasing best-configuration size.
      s.group_order.resize(static_cast<size_t>(sys.n_groups()));
      std::vector<int> best_size(static_cast<size_t>(sys.n_groups()), 0);
      for (int g = 0; g < sys.n_groups(); ++g) {
        s.group_order[static_cast<size_t>(g)] = g;
        for (const auto& c : s.configs[static_cast<size_t>(g)]) {
          best_size[static_cast<size_t>(g)] =
              std::max(best_size[static_cast<size_t>(g)], c.members.count());
        }
      }
      std::sort(s.group_order.begin(), s.group_order.end(), [&](int a, int b) {
        return best_size[static_cast<size_t>(a)] != best_size[static_cast<size_t>(b)]
                   ? best_size[static_cast<size_t>(a)] > best_size[static_cast<size_t>(b)]
                   : a < b;
      });
      s.suffix_union.assign(s.group_order.size() + 1, util::DynBitset(sys.n_elements()));
      for (size_t k = s.group_order.size(); k-- > 0;) {
        s.suffix_union[k] = s.suffix_union[k + 1];
        for (const auto& c : s.configs[static_cast<size_t>(s.group_order[k])]) {
          s.suffix_union[k].or_assign(c.members);
        }
      }

      s.best_covered = warm_covered;
      s.best_chosen = greedy.chosen;
      s.dfs(0, util::DynBitset(sys.n_elements()), 0);

      ExactMnuResult res;
      res.chosen = std::move(s.best_chosen);
      res.covered = std::max(s.best_covered, 0);
      res.status = s.clock.status();
      res.nodes = s.clock.nodes();
      return res;
    }
  }

  // Fallback: set-wise include/exclude search.
  SetwiseSearcher s(sys, limits);
  s.budgets.assign(group_budgets.begin(), group_budgets.end());
  for (int j = 0; j < sys.n_sets(); ++j) {
    if (sys.set(j).cost <= group_budgets[static_cast<size_t>(sys.set(j).group)] + kTol) {
      s.order.push_back(j);
    }
  }
  std::sort(s.order.begin(), s.order.end(), [&](int a, int b) {
    const double da = sys.set(a).members.count() / sys.set(a).cost;
    const double db = sys.set(b).members.count() / sys.set(b).cost;
    return da != db ? da > db : a < b;
  });
  s.suffix.assign(s.order.size() + 1, util::DynBitset(sys.n_elements()));
  for (size_t k = s.order.size(); k-- > 0;) {
    s.suffix[k] = s.suffix[k + 1];
    s.suffix[k].or_assign(sys.set(s.order[k]).members);
  }
  s.group_suffix.assign(static_cast<size_t>(sys.n_groups()), {});
  for (size_t k = 0; k < s.order.size(); ++k) {
    const auto& cs = sys.set(s.order[k]);
    s.group_suffix[static_cast<size_t>(cs.group)].push_back(
        SetwiseSearcher::GroupSet{k, cs.cost, cs.members.count()});
  }

  s.best_covered = warm_covered;
  s.best_chosen = greedy.chosen;
  s.dfs(0, util::DynBitset(sys.n_elements()), 0);

  ExactMnuResult res;
  res.chosen = std::move(s.best_chosen);
  res.covered = std::max(s.best_covered, 0);
  res.status = s.clock.status();
  res.nodes = s.clock.nodes();
  return res;
}

ExactMnuResult exact_max_coverage_uniform(const setcover::SetSystem& sys, double budget,
                                          const BbLimits& limits) {
  const std::vector<double> budgets(static_cast<size_t>(sys.n_groups()), budget);
  return exact_max_coverage(sys, budgets, limits);
}

}  // namespace wmcast::exact
