#include "wmcast/assoc/local_search.hpp"
#include "wmcast/util/fp.hpp"

#include <algorithm>
#include <limits>

#include "wmcast/util/assert.hpp"
#include "wmcast/wlan/load_model.hpp"

namespace wmcast::assoc {

namespace {

constexpr double kImproveEps = 1e-12;

// Search state over the incremental load model (wlan/load_model.hpp). The
// model's loads are bit-identical to ap_load_for_members rescans, and every
// mutation below applies the same `total += new_load - old_load` arithmetic
// the rescanning implementation did — including the transient probe/rollback
// sequence, whose rounding drift is part of the observable tie-break
// behavior. Candidate probes therefore cost O(rate levels), not O(members),
// while leaving every accepted move unchanged.
struct State {
  const wlan::Scenario& sc;
  const LocalSearchParams& params;
  // All mutable search state lives in the (possibly caller-owned) workspace.
  std::vector<int>& user_ap;
  std::vector<std::vector<int>>& members;  // per AP
  std::vector<double>& ap_load;            // per AP
  wlan::LoadModel model;
  int served = 0;
  double total = 0.0;

  State(const wlan::Scenario& s, const LocalSearchParams& p, core::AssocWorkspace& w)
      : sc(s), params(p), user_ap(w.user_ap), members(w.members), ap_load(w.ap_load) {
    w.prepare(s.n_aps(), s.n_users());
    model.reset(s, p.multi_rate);
  }

  void place(int u, int a, double rate) {
    WMCAST_ASSERT(user_ap[static_cast<size_t>(u)] == wlan::kNoAp, "place: already placed");
    if (a == wlan::kNoAp) return;
    members[static_cast<size_t>(a)].push_back(u);
    const double nl = model.add(a, sc.user_session(u), rate);
    total += nl - ap_load[static_cast<size_t>(a)];
    ap_load[static_cast<size_t>(a)] = nl;
    user_ap[static_cast<size_t>(u)] = a;
    ++served;
  }
  void place(int u, int a) {
    if (a == wlan::kNoAp) return;
    place(u, a, sc.link_rate(a, u));
  }

  void unplace(int u) {
    const int a = user_ap[static_cast<size_t>(u)];
    if (a == wlan::kNoAp) return;
    auto& m = members[static_cast<size_t>(a)];
    m.erase(std::find(m.begin(), m.end(), u));
    const double nl = model.remove(a, sc.user_session(u), sc.link_rate(a, u));
    total += nl - ap_load[static_cast<size_t>(a)];
    ap_load[static_cast<size_t>(a)] = nl;
    user_ap[static_cast<size_t>(u)] = wlan::kNoAp;
    --served;
  }

  double max_load() const {
    double mx = 0.0;
    for (const double l : ap_load) mx = std::max(mx, l);
    return mx;
  }

  /// max_load() as it would read after moving `u` from `cur` (load lc_wo)
  /// onto `a` (load la_w) — the two substituted entries are exactly the
  /// values a physical move would have written.
  double probe_max_load(int cur, double lc_wo, int a, double la_w) const {
    double mx = 0.0;
    for (size_t k = 0; k < ap_load.size(); ++k) {
      double l = ap_load[k];
      if (static_cast<int>(k) == cur) l = lc_wo;
      if (static_cast<int>(k) == a) l = la_w;
      mx = std::max(mx, l);
    }
    return mx;
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

  Key key() const {
    switch (params.objective) {
      case SearchObjective::kTotalLoad:
        return {static_cast<double>(-served), total, 0.0};
      case SearchObjective::kMaxLoad:
        return {static_cast<double>(-served), max_load(), total};
      case SearchObjective::kServedUsers:
        return {static_cast<double>(-served), total, 0.0};
    }
    return {0.0, 0.0, 0.0};
  }

  Key probe_key(double probe_total, int probe_served, int cur, double lc_wo, int a,
                double la_w) const {
    switch (params.objective) {
      case SearchObjective::kTotalLoad:
        return {static_cast<double>(-probe_served), probe_total, 0.0};
      case SearchObjective::kMaxLoad:
        return {static_cast<double>(-probe_served), probe_max_load(cur, lc_wo, a, la_w),
                probe_total};
      case SearchObjective::kServedUsers:
        return {static_cast<double>(-probe_served), probe_total, 0.0};
    }
    return {0.0, 0.0, 0.0};
  }
};

}  // namespace

Solution local_search(const wlan::Scenario& sc, const wlan::Association& start,
                      const LocalSearchParams& params, LocalSearchStats* stats,
                      core::AssocWorkspace* workspace) {
  util::require(start.n_users() == sc.n_users(), "local_search: association size mismatch");

  core::AssocWorkspace local_ws;
  core::AssocWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
  State st(sc, params, ws);
  for (int u = 0; u < sc.n_users(); ++u) {
    const int a = start.ap_of(u);
    if (a == wlan::kNoAp) continue;
    util::require(a >= 0 && a < sc.n_aps() && sc.in_range(a, u),
                  "local_search: invalid start association");
    st.place(u, a);
  }

  // Repair an infeasible start: peel members off over-budget APs, dropping
  // whoever frees the most load per removal.
  if (params.enforce_budget) {
    for (int a = 0; a < sc.n_aps(); ++a) {
      while (util::exceeds_budget(st.ap_load[static_cast<size_t>(a)], sc.load_budget())) {
        const auto m = st.members[static_cast<size_t>(a)];  // copy: we mutate inside
        WMCAST_ASSERT(!m.empty(), "local_search: over budget with no members");
        int best_u = m.front();
        double best_drop = -1.0;
        for (const int u : m) {
          const double drop =
              st.ap_load[static_cast<size_t>(a)] -
              st.model.load_without(a, sc.user_session(u), sc.link_rate(a, u));
          if (drop > best_drop) {
            best_drop = drop;
            best_u = u;
          }
        }
        st.unplace(best_u);
      }
    }
  }

  // Candidate movers: everyone, or the caller's restriction set.
  std::vector<int>& movers = ws.scratch;
  movers.clear();
  if (params.restrict_users.empty()) {
    movers.resize(static_cast<size_t>(sc.n_users()));
    for (int u = 0; u < sc.n_users(); ++u) movers[static_cast<size_t>(u)] = u;
  } else {
    movers = params.restrict_users;
    for (const int u : movers) {
      util::require(u >= 0 && u < sc.n_users(), "local_search: restrict user out of range");
    }
  }

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
      const State::Key before = st.key();
      const int s_u = sc.user_session(u);

      // The unplace half of every probe is the same: u leaves cur.
      double lc_wo = 0.0;
      double d_un = 0.0;
      if (cur != wlan::kNoAp) {
        lc_wo = st.model.load_without(cur, s_u, sc.link_rate(cur, u));
        d_un = lc_wo - st.ap_load[static_cast<size_t>(cur)];
      }
      const int probe_served = cur != wlan::kNoAp ? st.served : st.served + 1;

      int best_target = cur;
      double best_rate = 0.0;
      State::Key best_key = before;
      const auto neighbors = sc.aps_of_user(u);
      const wlan::RateSpan rates = sc.rates_of_user(u);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const int a = neighbors[i];
        if (a == cur) continue;
        const double la_w = st.model.load_with(a, s_u, rates[i]);
        const double d_pl = la_w - st.ap_load[static_cast<size_t>(a)];
        // Try the move: the same two load deltas a physical unplace/place
        // pair adds to the running total.
        double t = st.total;
        if (cur != wlan::kNoAp) t += d_un;
        t += d_pl;
        const bool feasible =
            !params.enforce_budget || util::fits_budget(la_w, sc.load_budget());
        const State::Key k = st.probe_key(t, probe_served, cur, lc_wo, a, la_w);
        // Roll back: subtracting the same deltas reproduces the rescanning
        // implementation's exact rounding (fp negation is exact).
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
        st.unplace(u);
        st.place(u, best_target, best_rate);
        ++local.moves;
        improved = true;
      }
    }
  }
  local.reached_local_optimum = !improved;

  // Copy (not move) the assignment out so the workspace stays reusable.
  Solution sol = make_solution("local-search", sc, wlan::Association{st.user_ap},
                               params.multi_rate);
  sol.converged = local.reached_local_optimum;
  if (stats != nullptr) *stats = local;
  return sol;
}

}  // namespace wmcast::assoc
