#include "wmcast/wlan/association.hpp"
#include "wmcast/util/fp.hpp"

#include <algorithm>
#include <limits>

#include "wmcast/util/assert.hpp"

namespace wmcast::wlan {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A [ap][session] table with every entry +inf: no member yet.
std::vector<std::vector<double>> no_members(const Scenario& sc) {
  return std::vector<std::vector<double>>(
      static_cast<size_t>(sc.n_aps()),
      std::vector<double>(static_cast<size_t>(sc.n_sessions()), kInf));
}

/// Turns the min member link rate per (AP, session) (+inf = no member) into
/// the tx rate in place: the min (multi-rate) or the basic rate, 0 = silent.
void tx_from_min_rates(const Scenario& sc, bool multi_rate,
                       std::vector<std::vector<double>>& tx) {
  for (auto& row : tx) {
    for (double& t : row) {
      if (t == kInf) {
        t = 0.0;
      } else if (!multi_rate) {
        t = sc.basic_rate();
      }
    }
  }
}

/// The per-AP fold both load reports share (Definition 1): an AP's load is
/// the sum of stream_rate / tx_rate over the sessions it transmits, summed in
/// session order, and the totals in AP order. Reads rep.tx_rate.
template <class Report>
void fold_ap_loads(const Scenario& sc, Report& rep) {
  rep.ap_load.assign(static_cast<size_t>(sc.n_aps()), 0.0);
  for (int a = 0; a < sc.n_aps(); ++a) {
    const std::vector<double>& tx = rep.tx_rate[static_cast<size_t>(a)];
    double load = 0.0;
    for (int s = 0; s < sc.n_sessions(); ++s) {
      const double t = tx[static_cast<size_t>(s)];
      if (t <= 0.0) continue;
      load += sc.session_rate(s) / t;
    }
    rep.ap_load[static_cast<size_t>(a)] = load;
    rep.total_load += load;
    rep.max_load = std::max(rep.max_load, load);
    if (util::exceeds_budget(load, sc.load_budget())) ++rep.budget_violations;
  }
}

}  // namespace

LoadReport compute_loads(const Scenario& sc, const Association& assoc, bool multi_rate) {
  util::require(assoc.n_users() == sc.n_users(), "compute_loads: association size mismatch");

  LoadReport rep;
  rep.tx_rate = no_members(sc);
  for (int u = 0; u < sc.n_users(); ++u) {
    const int a = assoc.ap_of(u);
    if (a == kNoAp) continue;
    util::require(a >= 0 && a < sc.n_aps(), "compute_loads: invalid AP id");
    const double r = sc.link_rate(a, u);
    util::require(r > 0.0, "compute_loads: user assigned to AP out of its range");
    ++rep.satisfied_users;
    const int s = sc.user_session(u);
    auto& mr = rep.tx_rate[static_cast<size_t>(a)][static_cast<size_t>(s)];
    mr = std::min(mr, r);
  }
  tx_from_min_rates(sc, multi_rate, rep.tx_rate);
  fold_ap_loads(sc, rep);
  return rep;
}

MultiLoadReport compute_multi_loads(const Scenario& sc, const MultiAssociation& multi,
                                    bool multi_rate) {
  util::require(multi.n_users() == sc.n_users(),
                "compute_multi_loads: association size mismatch");

  // Minimum member link rate per (AP, session) over ALL users the AP serves,
  // multi-served or not — each contributing AP carries the full stream.
  std::vector<std::vector<double>> tx = no_members(sc);
  for (int u = 0; u < sc.n_users(); ++u) {
    const int s = sc.user_session(u);
    int prev = -1;
    for (const int a : multi.aps_of(u)) {
      util::require(a >= 0 && a < sc.n_aps(), "compute_multi_loads: invalid AP id");
      util::require(a > prev,
                    "compute_multi_loads: served-set must be sorted and duplicate-free");
      prev = a;
      const double r = sc.link_rate(a, u);
      util::require(r > 0.0, "compute_multi_loads: user served by AP out of its range");
      auto& mr = tx[static_cast<size_t>(a)][static_cast<size_t>(s)];
      mr = std::min(mr, r);
    }
  }
  tx_from_min_rates(sc, multi_rate, tx);
  return multi_loads_from_tx(sc, multi, std::move(tx));
}

MultiLoadReport multi_loads_from_tx(const Scenario& sc, const MultiAssociation& multi,
                                    std::vector<std::vector<double>> tx) {
  util::require(multi.n_users() == sc.n_users(),
                "multi_loads_from_tx: association size mismatch");
  util::require(tx.size() == static_cast<size_t>(sc.n_aps()),
                "multi_loads_from_tx: tx table does not match scenario");

  MultiLoadReport rep;
  rep.tx_rate = std::move(tx);
  fold_ap_loads(sc, rep);

  // Additive combine rule: one stream per serving AP, each at that AP's
  // session tx rate.
  rep.effective_rate.assign(static_cast<size_t>(sc.n_users()), 0.0);
  double sum_eff = 0.0;
  for (int u = 0; u < sc.n_users(); ++u) {
    const auto& aps = multi.aps_of(u);
    if (!aps.empty()) {
      ++rep.satisfied_users;
      if (aps.size() >= 2) ++rep.multi_served_users;
    }
    const int s = sc.user_session(u);
    double eff = 0.0;
    for (const int a : aps) {
      eff += rep.tx_rate[static_cast<size_t>(a)][static_cast<size_t>(s)];
    }
    rep.effective_rate[static_cast<size_t>(u)] = eff;
    sum_eff += eff;
  }
  rep.mean_effective_rate =
      rep.satisfied_users > 0 ? sum_eff / rep.satisfied_users : 0.0;
  return rep;
}

double ap_load_for_members(const Scenario& sc, int ap, const std::vector<int>& members,
                           bool multi_rate) {
  std::vector<double> min_rate(static_cast<size_t>(sc.n_sessions()),
                               std::numeric_limits<double>::infinity());
  for (const int u : members) {
    const double r = sc.link_rate(ap, u);
    WMCAST_ASSERT(r > 0.0, "ap_load_for_members: member out of AP range");
    const int s = sc.user_session(u);
    min_rate[static_cast<size_t>(s)] = std::min(min_rate[static_cast<size_t>(s)], r);
  }
  double load = 0.0;
  for (int s = 0; s < sc.n_sessions(); ++s) {
    const double mr = min_rate[static_cast<size_t>(s)];
    if (mr == std::numeric_limits<double>::infinity()) continue;
    load += sc.session_rate(s) / (multi_rate ? mr : sc.basic_rate());
  }
  return load;
}

}  // namespace wmcast::wlan
