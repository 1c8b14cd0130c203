#include "wmcast/assoc/local_search.hpp"
#include "wmcast/util/fp.hpp"

#include <algorithm>
#include <numeric>

#include "wmcast/util/assert.hpp"

namespace wmcast::assoc {

namespace {

constexpr double kImproveEps = 1e-12;

// Membership changes over the incremental load model (wlan/load_model.hpp).
// The model's loads are bit-identical to ap_load_for_members rescans, and
// every change applies the same `total += new_load - old_load` arithmetic a
// rescanning implementation would — including the transient probe/rollback
// sequence in climb(), whose rounding drift is part of the observable
// tie-break behavior. Candidate probes therefore cost O(rate levels), not
// O(members).
void place(const wlan::Scenario& sc, ClimbState& st, int u, int a, double rate) {
  WMCAST_ASSERT(st.user_ap[static_cast<size_t>(u)] == wlan::kNoAp, "place: already placed");
  st.members[static_cast<size_t>(a)].push_back(u);
  const double old = st.model.load(a);
  st.total += st.model.add(a, sc.user_session(u), rate) - old;
  st.user_ap[static_cast<size_t>(u)] = a;
  ++st.served;
}

void unplace(const wlan::Scenario& sc, ClimbState& st, int u) {
  const int a = st.user_ap[static_cast<size_t>(u)];
  auto& m = st.members[static_cast<size_t>(a)];
  m.erase(std::find(m.begin(), m.end(), u));
  const double old = st.model.load(a);
  st.total += st.model.remove(a, sc.user_session(u), sc.link_rate(a, u)) - old;
  st.user_ap[static_cast<size_t>(u)] = wlan::kNoAp;
  --st.served;
}

/// Lexicographic objective key; smaller is better for every objective.
struct Key {
  double k1, k2, k3;
  bool better_than(const Key& o) const {
    if (k1 < o.k1 - kImproveEps) return true;
    if (k1 > o.k1 + kImproveEps) return false;
    if (k2 < o.k2 - kImproveEps) return true;
    if (k2 > o.k2 + kImproveEps) return false;
    return k3 < o.k3 - kImproveEps;
  }
};

/// The maximum AP load as it would read with AP `cur` at `lc_wo` and AP `a`
/// at `la_w` (pass kNoAp to substitute nothing).
double max_load(const wlan::Scenario& sc, const wlan::LoadModel& model, int cur,
                double lc_wo, int a, double la_w) {
  double mx = 0.0;
  for (int b = 0; b < sc.n_aps(); ++b) {
    double l = model.load(b);
    if (b == cur) l = lc_wo;
    if (b == a) l = la_w;
    mx = std::max(mx, l);
  }
  return mx;
}

}  // namespace

void peel_over_budget(const wlan::Scenario& sc, ClimbState& st, int a,
                      std::vector<int>* evicted) {
  const auto& m = st.members[static_cast<size_t>(a)];
  while (util::exceeds_budget(st.model.load(a), sc.load_budget()) && !m.empty()) {
    const double load = st.model.load(a);
    int best_u = m.front();
    double best_drop = -1.0;  // every drop is >= 0: leaving never adds load
    for (const int u : m) {
      const double drop =
          load - st.model.load_without(a, sc.user_session(u), sc.link_rate(a, u));
      if (drop > best_drop) {
        best_drop = drop;
        best_u = u;
      }
    }
    unplace(sc, st, best_u);
    if (evicted != nullptr) evicted->push_back(best_u);
  }
}

LocalSearchStats climb(const wlan::Scenario& sc, const LocalSearchParams& params,
                       ClimbState& st, const std::vector<int>& movers) {
  const auto key = [&](int served, double total, int cur, double lc_wo, int a,
                       double la_w) -> Key {
    if (params.objective == SearchObjective::kMaxLoad) {
      return {static_cast<double>(-served), max_load(sc, st.model, cur, lc_wo, a, la_w),
              total};
    }
    return {static_cast<double>(-served), total, 0.0};
  };
  const int start_served = st.served;
  const auto target_reached = [&] {
    return params.target_total >= 0.0 && st.served >= start_served &&
           st.total <= params.target_total;
  };

  LocalSearchStats local;
  bool improved = true;
  while (improved && local.moves < params.max_moves && !target_reached()) {
    improved = false;
    for (size_t mi = 0; mi < movers.size() && local.moves < params.max_moves &&
                        !target_reached();
         ++mi) {
      const int u = movers[mi];
      const int cur = st.user_ap[static_cast<size_t>(u)];
      const Key before = key(st.served, st.total, wlan::kNoAp, 0.0, wlan::kNoAp, 0.0);
      const int s_u = sc.user_session(u);

      // The unplace half of every probe is the same: u leaves cur.
      double lc_wo = 0.0;
      double d_un = 0.0;
      if (cur != wlan::kNoAp) {
        lc_wo = st.model.load_without(cur, s_u, sc.link_rate(cur, u));
        d_un = lc_wo - st.model.load(cur);
      }
      const int probe_served = cur != wlan::kNoAp ? st.served : st.served + 1;

      int best_target = cur;
      double best_rate = 0.0;
      Key best_key = before;
      const auto neighbors = sc.aps_of_user(u);
      const wlan::RateSpan rates = sc.rates_of_user(u);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const int a = neighbors[i];
        if (a == cur) continue;
        const double la_w = st.model.load_with(a, s_u, rates[i]);
        const double d_pl = la_w - st.model.load(a);
        // Try the move: the same two load deltas a physical unplace/place
        // pair adds to the running total.
        double t = st.total;
        if (cur != wlan::kNoAp) t += d_un;
        t += d_pl;
        const bool feasible = util::fits_budget(la_w, sc.load_budget());
        const Key k = key(probe_served, t, cur, lc_wo, a, la_w);
        // Roll back: subtracting the same deltas reproduces a physical undo's
        // exact rounding (fp negation is exact).
        t -= d_pl;
        if (cur != wlan::kNoAp) t -= d_un;
        st.total = t;
        if (feasible && k.better_than(best_key)) {
          best_key = k;
          best_target = a;
          best_rate = rates[i];
        }
      }
      // A move must either serve an extra user or beat the gain floor.
      const bool serves_more = best_key.k1 < before.k1 - kImproveEps;
      const bool enough_gain =
          params.min_gain <= 0.0 || serves_more ||
          before.k2 - best_key.k2 >= params.min_gain - kImproveEps;
      if (best_target != cur && enough_gain) {
        if (cur != wlan::kNoAp) unplace(sc, st, u);
        place(sc, st, u, best_target, best_rate);
        ++local.moves;
        improved = true;
      }
    }
  }
  local.reached_local_optimum = !improved;
  return local;
}

Solution local_search(const wlan::Scenario& sc, const wlan::Association& start,
                      const LocalSearchParams& params, LocalSearchStats* stats,
                      core::AssocWorkspace* workspace) {
  util::require(start.n_users() == sc.n_users(), "local_search: association size mismatch");

  core::AssocWorkspace local_ws;
  core::AssocWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  ws.prepare(sc.n_aps(), sc.n_users());
  wlan::LoadModel model;
  model.reset(sc, params.multi_rate);
  ClimbState st{ws.user_ap, ws.members, model};
  for (int u = 0; u < sc.n_users(); ++u) {
    const int a = start.ap_of(u);
    if (a == wlan::kNoAp) continue;
    util::require(a >= 0 && a < sc.n_aps() && sc.in_range(a, u),
                  "local_search: invalid start association");
    place(sc, st, u, a, sc.link_rate(a, u));
  }

  // Repair an infeasible start, then climb with every user movable.
  for (int a = 0; a < sc.n_aps(); ++a) peel_over_budget(sc, st, a);
  std::vector<int>& movers = ws.scratch;
  movers.resize(static_cast<size_t>(sc.n_users()));
  std::iota(movers.begin(), movers.end(), 0);
  const LocalSearchStats local = climb(sc, params, st, movers);

  // Copy (not move) the assignment out so the workspace stays reusable.
  Solution sol = make_solution("local-search", sc, wlan::Association{st.user_ap},
                               params.multi_rate);
  sol.converged = local.reached_local_optimum;
  if (stats != nullptr) *stats = local;
  return sol;
}

}  // namespace wmcast::assoc
