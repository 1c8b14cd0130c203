// k-connectivity multicast association (DESIGN.md §15-16): a user may be
// served by up to k APs simultaneously, combining one multicast stream per
// serving AP (additive combine rule — the multi-connectivity model of Zuhra
// et al., "Multi-Connectivity for Multicast Video Streaming", see PAPERS.md).
//
// The augmentation is a *decomposable local rule* over the base single-AP
// association, evaluated in three phases whose inputs are strictly local:
//
//   1. plan   (per AP)      — each (AP, session) stream is RUNNING (the base
//      association already transmits it; secondaries may join free if their
//      link sustains the advertised base tx rate) or STARTABLE (silent, but
//      at least one base-served session hearer could adopt it; advertised at
//      the min link over those potential adopters, optionally gated by the
//      AP's load budget with a conservative cost estimate).
//   2. derive (per user)    — each base-served user ranks its heard APs'
//      plan entries by (advertised rate desc, running-before-startable,
//      AP id asc) and takes the best min(k, |heard|) - 1 secondaries.
//   3. settle (per AP)      — running streams keep their base tx rate
//      (joiners decode at or above it, so the member min is unchanged);
//      started streams settle to the min link over their actual adopters.
//
// Because every phase reads only the base association, the scenario CSR and
// the previous phase's output, the rule needs no shared mutable state: it is
// trivially deterministic, bitwise identical at any thread count, and
// repairable per dirty region with exact equality to a cold re-derivation
// (ctrl/controller.cpp maintains the plan/overlay/tx tables by that repair
// alone, and the chaos kconn-incremental oracle byte-checks them against
// augment_to_k every epoch). k == 1 stays bit-identical to every legacy
// solver by construction: the overlay is never materialized.
#pragma once

#include <vector>

#include "wmcast/assoc/solution.hpp"
#include "wmcast/wlan/association.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::assoc {

struct KconnParams {
  /// Maximum serving APs per user; effective cap is min(k, |heard-set|).
  int k = 1;
  bool multi_rate = true;
  /// Gate stream *starts* on the contributing AP's load budget (the MNU
  /// setting), using the conservative planning estimate stream_rate / p:
  /// actual adopters are a subset of the potential adopters p was minimized
  /// over, so the settled cost never exceeds the estimate and the gate can
  /// never admit a new budget violation. Joining a running stream is free and
  /// is never gated.
  bool enforce_budget = false;
};

/// The per-(AP, session) stream plan (phase 1 output), flattened row-major
/// [ap * n_sessions + session]. advert == 0 means the stream is unavailable
/// to secondaries; startable distinguishes silent-but-startable entries from
/// running ones.
struct KconnPlan {
  int n_aps = 0;
  int n_sessions = 0;
  std::vector<double> advert;
  std::vector<char> startable;
  /// Potential-adopter min: pmin[at(a, s)] = min link rate over base-served
  /// session-s hearers of a (+inf when there are none), and pcount = how many
  /// of them sit exactly at that min. For a silent stream pmin is exactly the
  /// planning rate p; for a running stream it is unused by the plan but kept
  /// valid so the controller can maintain it with O(1) arrival/departure
  /// deltas across epochs and re-plan a dirty AP in O(S) instead of
  /// O(members). The count makes departures cheap under the coarse 802.11
  /// rate quantization: a departing hearer often TIES the pool min, and only
  /// the departure of the last min-rate member forces a rescan.
  std::vector<double> pmin;
  std::vector<int> pcount;

  void resize(int aps, int sessions) {
    n_aps = aps;
    n_sessions = sessions;
    advert.assign(static_cast<size_t>(aps) * static_cast<size_t>(sessions), 0.0);
    startable.assign(static_cast<size_t>(aps) * static_cast<size_t>(sessions), 0);
    pmin.assign(static_cast<size_t>(aps) * static_cast<size_t>(sessions), 0.0);
    pcount.assign(static_cast<size_t>(aps) * static_cast<size_t>(sessions), 0);
  }
  size_t at(int a, int s) const {
    return static_cast<size_t>(a) * static_cast<size_t>(n_sessions) +
           static_cast<size_t>(s);
  }
};

/// Phase-2 candidate scratch, reusable across calls (and per pool lane on the
/// controller's parallel repair path).
struct KconnScratch {
  struct Candidate {
    double advert;
    int tier;  // 0 = running, 1 = startable
    int ap;
  };
  std::vector<Candidate> cands;
};

/// Phase 1a for one AP: rewrites the pmin row [a][*] by scanning AP a's
/// member CSR row — the exact full-rescan path. The controller's persistent
/// engine calls this only when a departure delta may have removed the min.
void kconn_scan_pmin(const wlan::Scenario& sc, const wlan::Association& base,
                     int a, KconnPlan& plan);

/// Phase 1b for one AP: rewrites the advert/startable rows [a][*] in O(S)
/// from base_loads and an already-valid pmin row. Running streams advertise
/// their base tx rate; silent streams with a finite pmin are budget-gated in
/// session-ascending order exactly as the one-shot plan.
void kconn_plan_from_pmin(const wlan::Scenario& sc,
                          const wlan::LoadReport& base_loads,
                          const KconnParams& params, int a, KconnPlan& plan);

/// Phase 1 for one AP: rewrites plan rows [a][*] (pmin included) from the
/// base association. Reads only AP a's member CSR row and base_loads' AP-a
/// entries. Equivalent to kconn_scan_pmin + kconn_plan_from_pmin.
void kconn_plan_ap(const wlan::Scenario& sc, const wlan::Association& base,
                   const wlan::LoadReport& base_loads, const KconnParams& params,
                   int a, KconnPlan& plan);

/// Phase 2 for one user: derives u's served-set (sorted ascending) into
/// `served`. Base-unserved users get an empty set; the base primary is always
/// a member. Reads only u's heard CSR row and the plan rows of heard APs.
void kconn_derive_user(const wlan::Scenario& sc, const wlan::Association& base,
                       const KconnPlan& plan, const KconnParams& params, int u,
                       std::vector<int>& served, KconnScratch& scratch);

/// Phase 3 for one AP: writes the settled per-session tx row for AP a
/// (tx_row[s], length n_sessions) given the full derived overlay. Running
/// streams keep base_loads.tx_rate; started streams take the min link over
/// their adopters (basic rate when !multi_rate); everything else is 0.
void kconn_settle_ap(const wlan::Scenario& sc, const wlan::LoadReport& base_loads,
                     const KconnParams& params, const KconnPlan& plan,
                     const wlan::MultiAssociation& multi, int a, double* tx_row);

// Phase 4, the load report, is wlan::multi_loads_from_tx on the settled tx
// table: the settle phase reproduces compute_multi_loads' min-rate fold by
// construction, so the report is bitwise compute_multi_loads'.

/// Cold path: grows `base` (a legacy single-AP association) into per-user
/// served-sets of up to params.k APs by running phases 1-2 over the whole
/// scenario. `base_loads` must be compute_loads(sc, base, multi_rate). Users
/// unserved in `base` stay unserved (the primary view is preserved verbatim).
/// Deterministic: a pure function of (sc, base, base_loads, params).
wlan::MultiAssociation augment_to_k(const wlan::Scenario& sc,
                                    const wlan::Association& base,
                                    const wlan::LoadReport& base_loads,
                                    const KconnParams& params);

/// Fills sol.k / sol.multi / sol.multi_loads from sol.assoc / sol.loads.
/// At k <= 1 the overlay stays empty (sol.k = 1) — the legacy Solution is
/// untouched, preserving bit-identity with pre-k builds.
void finalize_kconn(const wlan::Scenario& sc, Solution& sol,
                    const KconnParams& params);

}  // namespace wmcast::assoc
