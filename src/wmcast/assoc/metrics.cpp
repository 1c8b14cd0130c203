#include <algorithm>

#include "wmcast/assoc/policy.hpp"
#include "wmcast/assoc/solution.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"
#include "wmcast/wlan/association.hpp"

namespace wmcast::assoc {

Solution make_solution(std::string algorithm, const wlan::Scenario& sc,
                       wlan::Association assoc, bool multi_rate) {
  Solution sol;
  sol.algorithm = std::move(algorithm);
  sol.loads = wlan::compute_loads(sc, assoc, multi_rate);
  sol.assoc = std::move(assoc);
  return sol;
}

namespace {

/// Lexicographic comparison of two load vectors sorted non-increasing, with
/// tolerance: a < b iff at the first position where they differ by more than
/// eps, a's entry is smaller (footnote 5 of the paper).
bool vector_less(const std::vector<double>& a, const std::vector<double>& b, double eps) {
  WMCAST_ASSERT(a.size() == b.size(), "vector_less: length mismatch");
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i] - eps) return true;
    if (a[i] > b[i] + eps) return false;
  }
  return false;
}

/// The policy's decision once every neighbor's load without u and with u
/// joined is known: score each candidate, keep the budget-feasible ones, pick
/// the best, and move an associated user only on strict improvement. The
/// member-list rescan and the LoadModel overload both end here; they differ
/// only in how they fill the two load arrays.
int pick_best_ap(const wlan::Scenario& sc, wlan::IndexSpan neighbors,
                 const std::vector<double>& load_without,
                 const std::vector<double>& load_with, int current_ap,
                 const PolicyParams& params) {
  // Score of associating with neighbors[i]; kTotalLoad uses a scalar, and
  // kLoadVector the sorted non-increasing vector.
  auto scalar_score = [&](size_t i) {
    double total = 0.0;
    for (size_t k = 0; k < neighbors.size(); ++k) {
      total += (k == i) ? load_with[k] : load_without[k];
    }
    return total;
  };
  auto vector_score = [&](size_t i) {
    std::vector<double> v(neighbors.size());
    for (size_t k = 0; k < neighbors.size(); ++k) {
      v[k] = (k == i) ? load_with[k] : load_without[k];
    }
    std::sort(v.begin(), v.end(), std::greater<>());
    return v;
  };
  auto feasible = [&](size_t i) {
    return !params.enforce_budget || util::fits_budget(load_with[i], sc.load_budget());
  };

  // Best candidate among all feasible neighbors; the strongest-first iteration
  // order makes signal strength the tie-breaker.
  int best_ap = wlan::kNoAp;
  double best_scalar = 0.0;
  std::vector<double> best_vector;
  for (size_t i = 0; i < neighbors.size(); ++i) {
    if (!feasible(i)) continue;
    if (params.objective == Objective::kTotalLoad) {
      const double s = scalar_score(i);
      if (best_ap == wlan::kNoAp || s < best_scalar - params.eps) {
        best_ap = neighbors[i];
        best_scalar = s;
      }
    } else {
      auto v = vector_score(i);
      if (best_ap == wlan::kNoAp || vector_less(v, best_vector, params.eps)) {
        best_ap = neighbors[i];
        best_vector = std::move(v);
      }
    }
  }

  if (best_ap == wlan::kNoAp) {
    // No feasible AP: an associated user keeps its AP (it was feasible when
    // it joined), an unassociated one stays out.
    return current_ap;
  }
  if (current_ap == wlan::kNoAp || best_ap == current_ap) return best_ap;

  // Move only on strict improvement over staying put.
  const auto cur = static_cast<size_t>(
      std::find(neighbors.begin(), neighbors.end(), current_ap) - neighbors.begin());
  WMCAST_ASSERT(cur < neighbors.size(), "choose_best_ap: current AP not a neighbor");
  if (params.objective == Objective::kTotalLoad) {
    return best_scalar < scalar_score(cur) - params.eps ? best_ap : current_ap;
  }
  return vector_less(best_vector, vector_score(cur), params.eps) ? best_ap : current_ap;
}

}  // namespace

int choose_best_ap(const wlan::Scenario& sc, int u,
                   const std::vector<std::vector<int>>& members, int current_ap,
                   const PolicyParams& params) {
  return choose_best_ap_among(sc, u, members, current_ap, params, sc.aps_of_user(u));
}

int choose_best_ap_among(const wlan::Scenario& sc, int u,
                         const std::vector<std::vector<int>>& members, int current_ap,
                         const PolicyParams& params, wlan::IndexSpan heard_aps) {
  const auto neighbors = heard_aps;  // strongest signal first; view, no copy
  if (neighbors.empty()) return current_ap;

  // Per-neighbor loads without u, and with u joined.
  std::vector<double> load_without(neighbors.size());
  std::vector<double> load_with(neighbors.size());
  std::vector<int> scratch;
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const int a = neighbors[i];
    scratch = members[static_cast<size_t>(a)];
    if (a == current_ap) {
      const auto it = std::find(scratch.begin(), scratch.end(), u);
      WMCAST_ASSERT(it != scratch.end(), "choose_best_ap: current AP lacks the user");
      scratch.erase(it);
    }
    load_without[i] = wlan::ap_load_for_members(sc, a, scratch, params.multi_rate);
    scratch.push_back(u);
    load_with[i] = wlan::ap_load_for_members(sc, a, scratch, params.multi_rate);
  }
  return pick_best_ap(sc, neighbors, load_without, load_with, current_ap, params);
}

int choose_best_ap(const wlan::Scenario& sc, const wlan::LoadModel& model, int u,
                   int current_ap, const PolicyParams& params) {
  const auto neighbors = sc.aps_of_user(u);
  if (neighbors.empty()) return current_ap;
  const wlan::RateSpan rates = sc.rates_of_user(u);
  const int s_u = sc.user_session(u);

  // Per-neighbor loads without u, and with u joined — the same values the
  // member-list rescans produce, via O(levels) model probes.
  std::vector<double> load_without(neighbors.size());
  std::vector<double> load_with(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const int a = neighbors[i];
    if (a == current_ap) {
      load_without[i] = model.load_without(a, s_u, rates[i]);
      load_with[i] = model.load(a);
    } else {
      load_without[i] = model.load(a);
      load_with[i] = model.load_with(a, s_u, rates[i]);
    }
  }
  return pick_best_ap(sc, neighbors, load_without, load_with, current_ap, params);
}

}  // namespace wmcast::assoc
