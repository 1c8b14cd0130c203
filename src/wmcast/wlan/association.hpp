// User-to-AP association and the induced multicast load model (Definition 1
// of the paper): an AP transmitting session s to a set of members uses the
// lowest member link rate, and its load is the sum over transmitted sessions
// of stream_rate / tx_rate. The single-AP and the multi-AP load reports fold
// their tx tables into loads through one per-AP fold, so a multi-association
// lifted from a single-AP one reports bitwise the same loads.
#pragma once

#include <algorithm>
#include <vector>

#include "wmcast/wlan/scenario.hpp"

namespace wmcast::wlan {

/// A (possibly partial) association of users to APs. user_ap[u] == kNoAp
/// means user u is not served (relevant for MNU, where budgets may force
/// rejections).
struct Association {
  std::vector<int> user_ap;

  static Association none(int n_users) {
    return Association{std::vector<int>(static_cast<size_t>(n_users), kNoAp)};
  }

  int n_users() const { return static_cast<int>(user_ap.size()); }
  int ap_of(int u) const { return user_ap[static_cast<size_t>(u)]; }

  friend bool operator==(const Association&, const Association&) = default;
};

/// Loads and transmission rates induced by an association.
struct LoadReport {
  std::vector<double> ap_load;               // [ap]
  std::vector<std::vector<double>> tx_rate;  // [ap][session], 0 = silent
  double total_load = 0.0;
  double max_load = 0.0;
  int satisfied_users = 0;
  int budget_violations = 0;  // APs whose load exceeds the scenario budget

  bool within_budget() const { return budget_violations == 0; }
};

/// Computes the load report for `assoc` on `sc`.
/// Throws std::invalid_argument if any user is assigned to an AP that cannot
/// reach it (link rate 0) or to an out-of-range AP id.
/// `multi_rate` selects the transmission-rate model: true (default) = the AP
/// multicasts each session at the lowest member link rate (the paper's
/// multi-rate assumption); false = every multicast goes at the scenario's
/// basic rate (the plain 802.11 standard behaviour).
LoadReport compute_loads(const Scenario& sc, const Association& assoc,
                         bool multi_rate = true);

/// Incremental load helper used by the distributed algorithms and SSA: the
/// load of a single AP given an explicit member list (user ids), without
/// building a full Association. Members must all be in range of `ap`.
double ap_load_for_members(const Scenario& sc, int ap, const std::vector<int>& members,
                           bool multi_rate = true);

/// A k-connectivity association: each user is served by a set of APs (up to k
/// of them; empty = unserved). Served-sets are kept sorted ascending so that
/// equality is structural and iteration order is deterministic.
struct MultiAssociation {
  std::vector<std::vector<int>> user_aps;

  static MultiAssociation none(int n_users) {
    return MultiAssociation{
        std::vector<std::vector<int>>(static_cast<size_t>(n_users))};
  }

  /// Lifts a single-AP association: every served user gets a singleton set.
  static MultiAssociation from_single(const Association& assoc) {
    MultiAssociation m = none(assoc.n_users());
    for (int u = 0; u < assoc.n_users(); ++u) {
      if (assoc.ap_of(u) != kNoAp) {
        m.user_aps[static_cast<size_t>(u)].push_back(assoc.ap_of(u));
      }
    }
    return m;
  }

  int n_users() const { return static_cast<int>(user_aps.size()); }
  const std::vector<int>& aps_of(int u) const {
    return user_aps[static_cast<size_t>(u)];
  }
  bool serves(int u, int a) const {
    const auto& s = user_aps[static_cast<size_t>(u)];
    return std::find(s.begin(), s.end(), a) != s.end();
  }

  friend bool operator==(const MultiAssociation&, const MultiAssociation&) = default;
};

/// Loads and per-user effective rates induced by a multi-association. The
/// combine rule is additive (DESIGN.md §15): a user's effective rate is the
/// sum of the multicast tx rates of the session streams it receives, one per
/// serving AP — the multi-connectivity model of Zuhra et al., where each AP's
/// stream carries an independent description.
struct MultiLoadReport {
  std::vector<double> ap_load;               // [ap]
  std::vector<std::vector<double>> tx_rate;  // [ap][session], 0 = silent
  std::vector<double> effective_rate;        // [user], 0 = unserved
  double total_load = 0.0;
  double max_load = 0.0;
  double mean_effective_rate = 0.0;  // over served users; 0 if none served
  int satisfied_users = 0;           // users with a non-empty served-set
  int multi_served_users = 0;        // users with >= 2 serving APs
  int budget_violations = 0;         // APs whose load exceeds the budget

  bool within_budget() const { return budget_violations == 0; }
};

/// Computes the load report for a multi-association: every serving AP counts
/// the user as a member for the min-rate of its (AP, session) stream, and
/// carries the induced load (Definition 1 applied per contributing AP).
/// Throws std::invalid_argument on out-of-range AP ids, zero-rate links, or
/// duplicate APs within one user's served-set.
MultiLoadReport compute_multi_loads(const Scenario& sc, const MultiAssociation& multi,
                                    bool multi_rate = true);

/// The tail of compute_multi_loads: folds an already-settled tx table
/// ([ap][session], 0 = silent) into the report — per-AP loads in AP order,
/// then per-user effective rates in user order. Bitwise equal to
/// compute_multi_loads(sc, multi, ...) whenever `tx` is that report's
/// tx_rate; the k >= 2 controller calls it on the tx table it keeps across
/// epochs. Served-sets are not re-validated.
MultiLoadReport multi_loads_from_tx(const Scenario& sc, const MultiAssociation& multi,
                                    std::vector<std::vector<double>> tx);

}  // namespace wmcast::wlan
