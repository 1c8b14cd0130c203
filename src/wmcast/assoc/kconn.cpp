#include "wmcast/assoc/kconn.hpp"

#include <algorithm>
#include <limits>

#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"

namespace wmcast::assoc {

void kconn_scan_pmin(const wlan::Scenario& sc, const wlan::Association& base,
                     int a, KconnPlan& plan) {
  const int S = sc.n_sessions();
  double* pmin = plan.pmin.data() + plan.at(a, 0);
  int* pcount = plan.pcount.data() + plan.at(a, 0);
  for (int s = 0; s < S; ++s) {
    pmin[s] = std::numeric_limits<double>::infinity();
    pcount[s] = 0;
  }
  // Every base-served hearer contributes, including members of running
  // streams: the plan never reads pmin for a running session, but keeping the
  // row session-complete means a stream that later falls silent (its primary
  // members hand off or leave) already has the correct adopter min on hand —
  // no rescan is needed for the running→silent flip itself.
  const wlan::IndexSpan members = sc.users_of_ap(a);
  const wlan::RateSpan rates = sc.rates_of_ap(a);
  for (size_t i = 0; i < members.size(); ++i) {
    const int u = members[i];
    if (base.ap_of(u) == wlan::kNoAp) continue;
    const int s = sc.user_session(u);
    if (rates[i] < pmin[s]) {
      pmin[s] = rates[i];
      pcount[s] = 1;
    } else if (rates[i] == pmin[s]) {
      ++pcount[s];
    }
  }
}

void kconn_plan_from_pmin(const wlan::Scenario& sc,
                          const wlan::LoadReport& base_loads,
                          const KconnParams& params, int a, KconnPlan& plan) {
  const int S = sc.n_sessions();
  double* advert = plan.advert.data() + plan.at(a, 0);
  char* startable = plan.startable.data() + plan.at(a, 0);
  const double* pmin = plan.pmin.data() + plan.at(a, 0);
  const std::vector<double>& base_tx = base_loads.tx_rate[static_cast<size_t>(a)];

  // Running streams advertise their base tx rate: a secondary whose link
  // sustains it joins without slowing the stream, so the member min — and
  // hence the AP's load — is untouched.
  for (int s = 0; s < S; ++s) {
    advert[s] = base_tx[static_cast<size_t>(s)];
    startable[s] = 0;
  }

  // Startable entries, budget-gated in session-ascending order with the
  // conservative estimate stream_rate / advert: the settled cost never
  // exceeds it (adopters are a subset of the potential adopters), so a gate
  // pass can never turn into a violation. For a silent session the pmin row
  // is exactly the potential-adopter min p (no hearer has a as primary, or
  // the stream would be running).
  double projected = base_loads.ap_load[static_cast<size_t>(a)];
  for (int s = 0; s < S; ++s) {
    if (advert[s] > 0.0) continue;  // running
    const double ps = pmin[s];
    if (ps == std::numeric_limits<double>::infinity()) continue;  // no adopters
    const double tx_est = params.multi_rate ? ps : sc.basic_rate();
    if (params.enforce_budget) {
      const double cost_est = sc.session_rate(s) / tx_est;
      if (util::exceeds_budget(projected + cost_est, sc.load_budget())) continue;
      projected += cost_est;
    }
    advert[s] = tx_est;
    startable[s] = 1;
  }
}

void kconn_plan_ap(const wlan::Scenario& sc, const wlan::Association& base,
                   const wlan::LoadReport& base_loads, const KconnParams& params,
                   int a, KconnPlan& plan) {
  kconn_scan_pmin(sc, base, a, plan);
  kconn_plan_from_pmin(sc, base_loads, params, a, plan);
}

void kconn_derive_user(const wlan::Scenario& sc, const wlan::Association& base,
                       const KconnPlan& plan, const KconnParams& params, int u,
                       std::vector<int>& served, KconnScratch& scratch) {
  served.clear();
  const int primary = base.ap_of(u);
  if (primary == wlan::kNoAp) return;  // base-unserved users stay unserved

  const wlan::IndexSpan heard = sc.aps_of_user(u);
  const wlan::RateSpan rates = sc.rates_of_user(u);
  const int cap = std::min(params.k, static_cast<int>(heard.size()));
  const int need = cap - 1;
  // Reserve the whole set up front: callers hand in empty rows (augment_to_k's
  // fresh overlay, the controller's swapped-out dirty rows), so growing by
  // push_back would allocate twice at k = 2.
  served.reserve(static_cast<size_t>(cap));
  if (need <= 0) {
    served.push_back(primary);
    return;
  }

  const int s = sc.user_session(u);
  auto& cands = scratch.cands;
  cands.clear();
  for (size_t i = 0; i < heard.size(); ++i) {
    const int a = heard[i];
    if (a == primary) continue;
    const double advert = plan.advert[plan.at(a, s)];
    // Decode filter: the user's link must sustain the advertised rate. For
    // startable streams this is automatic under multi-rate (advert is the min
    // over potential adopters, u among them); under the basic-rate model it
    // excludes links below the basic rate.
    if (advert <= 0.0 || rates[i] < advert) continue;
    cands.push_back({advert, plan.startable[plan.at(a, s)] != 0 ? 1 : 0, a});
  }
  const int take = std::min(need, static_cast<int>(cands.size()));
  if (take > 0) {
    // Strongest advertised rate first; free (running) adoptions beat stream
    // starts at equal rate; AP id breaks the remaining ties deterministically.
    std::partial_sort(cands.begin(), cands.begin() + take, cands.end(),
                      [](const KconnScratch::Candidate& x,
                         const KconnScratch::Candidate& y) {
                        if (x.advert != y.advert) return x.advert > y.advert;
                        if (x.tier != y.tier) return x.tier < y.tier;
                        return x.ap < y.ap;
                      });
  }
  served.push_back(primary);
  for (int i = 0; i < take; ++i) served.push_back(cands[static_cast<size_t>(i)].ap);
  std::sort(served.begin(), served.end());
}

void kconn_settle_ap(const wlan::Scenario& sc, const wlan::LoadReport& base_loads,
                     const KconnParams& params, const KconnPlan& plan,
                     const wlan::MultiAssociation& multi, int a, double* tx_row) {
  const int S = sc.n_sessions();
  const std::vector<double>& base_tx = base_loads.tx_rate[static_cast<size_t>(a)];
  thread_local std::vector<double> min_rate;
  min_rate.assign(static_cast<size_t>(S), std::numeric_limits<double>::infinity());

  // Adopter min per session over this AP's started streams. Running streams
  // never need the scan: every joiner decodes at >= the base tx rate, so the
  // member min stays the base min exactly.
  bool any_started = false;
  for (int s = 0; s < S; ++s) {
    if (base_tx[static_cast<size_t>(s)] <= 0.0 &&
        plan.startable[plan.at(a, s)] != 0) {
      any_started = true;
    }
  }
  if (any_started) {
    const wlan::IndexSpan members = sc.users_of_ap(a);
    const wlan::RateSpan rates = sc.rates_of_ap(a);
    for (size_t i = 0; i < members.size(); ++i) {
      const int u = members[i];
      const int s = sc.user_session(u);
      if (base_tx[static_cast<size_t>(s)] > 0.0 ||
          plan.startable[plan.at(a, s)] == 0) {
        continue;
      }
      if (!multi.serves(u, a)) continue;
      auto& mr = min_rate[static_cast<size_t>(s)];
      mr = std::min(mr, rates[i]);
    }
  }

  for (int s = 0; s < S; ++s) {
    const double bt = base_tx[static_cast<size_t>(s)];
    if (bt > 0.0) {
      tx_row[s] = bt;
    } else if (min_rate[static_cast<size_t>(s)] !=
               std::numeric_limits<double>::infinity()) {
      tx_row[s] = params.multi_rate ? min_rate[static_cast<size_t>(s)]
                                    : sc.basic_rate();
    } else {
      tx_row[s] = 0.0;  // silent (startable but nobody adopted, or neither)
    }
  }
}

wlan::MultiAssociation augment_to_k(const wlan::Scenario& sc,
                                    const wlan::Association& base,
                                    const wlan::LoadReport& base_loads,
                                    const KconnParams& params) {
  util::require(base.n_users() == sc.n_users(),
                "augment_to_k: association size mismatch");
  util::require(base_loads.tx_rate.size() == static_cast<size_t>(sc.n_aps()),
                "augment_to_k: load report does not match scenario");

  wlan::MultiAssociation multi = wlan::MultiAssociation::none(sc.n_users());
  if (params.k < 2) {
    for (int u = 0; u < sc.n_users(); ++u) {
      if (base.ap_of(u) != wlan::kNoAp) {
        multi.user_aps[static_cast<size_t>(u)].push_back(base.ap_of(u));
      }
    }
    return multi;
  }

  KconnPlan plan;
  plan.resize(sc.n_aps(), sc.n_sessions());
  for (int a = 0; a < sc.n_aps(); ++a) {
    kconn_plan_ap(sc, base, base_loads, params, a, plan);
  }
  KconnScratch scratch;
  for (int u = 0; u < sc.n_users(); ++u) {
    kconn_derive_user(sc, base, plan, params, u,
                      multi.user_aps[static_cast<size_t>(u)], scratch);
  }
  return multi;
}

void finalize_kconn(const wlan::Scenario& sc, Solution& sol,
                    const KconnParams& params) {
  if (params.k <= 1) {
    sol.k = 1;
    return;
  }
  sol.k = params.k;
  sol.multi = augment_to_k(sc, sol.assoc, sol.loads, params);
  sol.multi_loads = wlan::compute_multi_loads(sc, sol.multi, params.multi_rate);
}

}  // namespace wmcast::assoc
