#include "wmcast/setcover/reference.hpp"

#include <algorithm>
#include <cmath>

#include "wmcast/core/solve.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"

namespace wmcast::setcover {

core::CoverResult greedy_set_cover_reference(const SetSystem& sys,
                                             const util::DynBitset* restrict_to) {
  util::DynBitset remaining = sys.coverable();
  if (restrict_to != nullptr) remaining.and_assign(*restrict_to);

  core::CoverResult res;
  res.covered = util::DynBitset(sys.n_elements());

  while (remaining.any()) {
    int best = -1;
    int best_gain = 0;
    for (int j = 0; j < sys.n_sets(); ++j) {
      const int gain = sys.set(j).members.and_count(remaining);
      if (gain <= 0) continue;
      if (best == -1 || core::better_pick(gain, sys.set(j).cost, j, best_gain,
                                          sys.set(best).cost, best)) {
        best = j;
        best_gain = gain;
      }
    }
    if (best == -1) break;
    res.chosen.push_back(best);
    res.total_cost += sys.set(best).cost;
    res.covered.or_assign(sys.set(best).members);
    remaining.andnot_assign(sys.set(best).members);
  }
  res.complete = remaining.none();
  return res;
}

core::McgResult mcg_greedy_reference(const SetSystem& sys,
                                     std::span<const double> group_budgets,
                                     const util::DynBitset* restrict_to) {
  util::require(static_cast<int>(group_budgets.size()) == sys.n_groups(),
                "mcg_greedy_reference: one budget per group required");

  util::DynBitset remaining = sys.coverable();
  if (restrict_to != nullptr) remaining.and_assign(*restrict_to);
  const util::DynBitset target = remaining;

  std::vector<double> group_cost(static_cast<size_t>(sys.n_groups()), 0.0);

  core::McgResult res;

  while (remaining.any()) {
    int best = -1;
    int best_gain = 0;
    for (int j = 0; j < sys.n_sets(); ++j) {
      const auto& s = sys.set(j);
      const auto g = static_cast<size_t>(s.group);
      if (!util::fits_budget(s.cost, group_budgets[g])) continue;  // never fits alone
      if (util::budget_exhausted(group_cost[g], group_budgets[g])) continue;
      const int gain = s.members.and_count(remaining);
      if (gain <= 0) continue;
      if (best == -1 || core::better_pick(gain, s.cost, j, best_gain,
                                          sys.set(best).cost, best)) {
        best = j;
        best_gain = gain;
      }
    }
    if (best == -1) break;
    const auto& s = sys.set(best);
    const auto g = static_cast<size_t>(s.group);
    group_cost[g] += s.cost;
    res.h.push_back(best);
    res.violator.push_back(util::exceeds_budget(group_cost[g], group_budgets[g]));
    remaining.andnot_assign(s.members);
  }

  util::DynBitset cov1(sys.n_elements());
  util::DynBitset cov2(sys.n_elements());
  for (size_t k = 0; k < res.h.size(); ++k) {
    if (res.violator[k]) {
      res.h2.push_back(res.h[k]);
      cov2.or_assign(sys.set(res.h[k]).members);
    } else {
      res.h1.push_back(res.h[k]);
      cov1.or_assign(sys.set(res.h[k]).members);
    }
  }
  cov1.and_assign(target);
  cov2.and_assign(target);
  if (cov2.count() > cov1.count()) {
    res.chosen = res.h2;
    res.covered = std::move(cov2);
  } else {
    res.chosen = res.h1;
    res.covered = std::move(cov1);
  }
  return res;
}

namespace {

core::ScgResult scg_run_at_budget_reference(const SetSystem& sys, double bstar,
                                            int max_passes, bool carry_budgets) {
  core::ScgResult res;
  res.bstar = bstar;
  res.covered = util::DynBitset(sys.n_elements());
  res.group_cost.assign(static_cast<size_t>(sys.n_groups()), 0.0);

  std::vector<double> pass_budget(static_cast<size_t>(sys.n_groups()), bstar);
  util::DynBitset remaining = sys.coverable();
  for (int pass = 0; pass < max_passes && remaining.any(); ++pass) {
    if (carry_budgets) {
      for (int g = 0; g < sys.n_groups(); ++g) {
        pass_budget[static_cast<size_t>(g)] =
            std::max(0.0, bstar - res.group_cost[static_cast<size_t>(g)]);
      }
    }
    const core::McgResult mcg = mcg_greedy_reference(sys, pass_budget, &remaining);
    if (mcg.covered.none()) break;
    ++res.passes;
    for (const int j : mcg.chosen) {
      res.chosen.push_back(j);
      res.group_cost[static_cast<size_t>(sys.set(j).group)] += sys.set(j).cost;
    }
    res.covered.or_assign(mcg.covered);
    remaining.andnot_assign(mcg.covered);
  }
  res.feasible = remaining.none();
  res.max_group_cost =
      res.group_cost.empty()
          ? 0.0
          : *std::max_element(res.group_cost.begin(), res.group_cost.end());
  return res;
}

bool scg_better_reference(const core::ScgResult& a, const core::ScgResult& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) return a.covered.count() > b.covered.count();
  return a.max_group_cost < b.max_group_cost;
}

}  // namespace

core::ScgResult scg_solve_reference(const SetSystem& sys, const core::ScgParams& params) {
  util::require(params.budget_cap > 0.0, "scg_solve_reference: budget cap must be positive");
  util::require(params.grid_points >= 2, "scg_solve_reference: need at least two grid points");

  const int n = std::max(1, sys.coverable().count());
  const int max_passes =
      static_cast<int>(std::ceil(std::log(n) / std::log(8.0 / 7.0))) + 8;

  const double lo = std::max(sys.min_feasible_budget(), 1e-9);
  const double hi = std::max(params.budget_cap, lo);

  core::ScgResult best = scg_run_at_budget_reference(sys, lo, max_passes, params.carry_budgets);
  double largest_infeasible = best.feasible ? 0.0 : lo;

  const double ratio = hi / lo;
  for (int k = 1; k < params.grid_points; ++k) {
    const double b =
        lo * std::pow(ratio, static_cast<double>(k) / (params.grid_points - 1));
    core::ScgResult r = scg_run_at_budget_reference(sys, b, max_passes, params.carry_budgets);
    if (!r.feasible) largest_infeasible = std::max(largest_infeasible, b);
    if (scg_better_reference(r, best)) best = std::move(r);
  }

  if (best.feasible) {
    double infeasible_lo = largest_infeasible;
    double feasible_hi = best.bstar;
    for (int step = 0; step < params.refine_steps; ++step) {
      if (feasible_hi - infeasible_lo < 1e-6) break;
      const double mid = infeasible_lo <= 0.0 ? feasible_hi / 2
                                              : 0.5 * (infeasible_lo + feasible_hi);
      core::ScgResult r = scg_run_at_budget_reference(sys, mid, max_passes, params.carry_budgets);
      if (r.feasible) {
        feasible_hi = mid;
        if (scg_better_reference(r, best)) best = std::move(r);
      } else {
        infeasible_lo = mid;
      }
    }
  }
  return best;
}

}  // namespace wmcast::setcover
