#include "wmcast/assoc/single_session.hpp"

#include <algorithm>
#include <chrono>

#include "wmcast/util/assert.hpp"

namespace wmcast::assoc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

Solution single_session_mnu(const wlan::Scenario& sc) {
  util::require(sc.n_sessions() == 1, "single_session_mnu: exactly one session required");
  const auto t0 = std::chrono::steady_clock::now();

  // An AP can serve user u within budget B iff link_rate >= rho/B: the AP's
  // transmission rate is the minimum member rate, so every member needs at
  // least rho/B. Serving *all* such users at once is feasible (min >= rho/B
  // keeps the cost within B), so the served set is exactly the users with
  // some AP at rate >= rho/B — assign each to its strongest such AP.
  const double min_rate = sc.session_rate(0) / sc.load_budget();

  auto assoc = wlan::Association::none(sc.n_users());
  for (int u = 0; u < sc.n_users(); ++u) {
    const auto aps = sc.aps_of_user(u);  // strongest first
    const wlan::RateSpan rates = sc.rates_of_user(u);
    for (size_t i = 0; i < aps.size(); ++i) {
      if (rates[i] >= min_rate) {
        assoc.user_ap[static_cast<size_t>(u)] = aps[i];
        break;
      }
    }
  }

  Solution sol = make_solution("MNU-1session", sc, std::move(assoc));
  sol.solve_seconds = seconds_since(t0);
  return sol;
}

Solution single_session_bla(const wlan::Scenario& sc) {
  util::require(sc.n_sessions() == 1, "single_session_bla: exactly one session required");
  const auto t0 = std::chrono::steady_clock::now();

  // Lower bound: the bottleneck user's best AP rate b_u = max_a rate(a, u)
  // caps every solution at max load >= rho / min_u b_u. Assigning every user
  // to its best-rate AP achieves it: each AP's minimum member rate is then
  // at least r* = min_u b_u.
  auto assoc = wlan::Association::none(sc.n_users());
  for (int u = 0; u < sc.n_users(); ++u) {
    int best_ap = wlan::kNoAp;
    double best_rate = 0.0;
    const auto aps = sc.aps_of_user(u);  // strongest first breaks ties
    const wlan::RateSpan rates = sc.rates_of_user(u);
    for (size_t i = 0; i < aps.size(); ++i) {
      if (rates[i] > best_rate) {
        best_rate = rates[i];
        best_ap = aps[i];
      }
    }
    assoc.user_ap[static_cast<size_t>(u)] = best_ap;  // kNoAp if uncoverable
  }

  Solution sol = make_solution("BLA-1session", sc, std::move(assoc));
  // Feasibility in the paper's sense: the uniform-rate argument needs the
  // resulting maximum load to fit in one multicast period.
  sol.converged = sol.loads.max_load <= 1.0 + 1e-9;
  sol.solve_seconds = seconds_since(t0);
  return sol;
}

}  // namespace wmcast::assoc
