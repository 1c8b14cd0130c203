// The online association controller — the long-lived serving loop around the
// paper's batch solvers. Events (joins, leaves, moves, zaps, rate changes)
// are ingested into a queue; each drain() call applies one batch as an
// *epoch*:
//
//   1. coalesce   — per-user net effect of the batch (join+leave = no-op);
//   2. admission  — joins are gated by per-AP load budgets (MNU's budget
//                   semantics) or a caller-supplied hook;
//   3. dirty region — users whose candidate-AP set or rate moved, plus
//                   members of multicast groups whose bottleneck rate moved
//                   (see compute_dirty_slots);
//   4. incremental repair — carry everyone else; peel over-budget APs,
//                   greedily re-place the dirty region and polish it with a
//                   dirty-restricted local search, sharded over AP-disjoint
//                   components (ctrl/repair_shard.hpp);
//   5. bounded signaling — epoch snapshots allow rejecting any outcome whose
//                   voluntary re-associations exceed max_reassoc_per_epoch,
//                   rolling back to the minimal forced repair (quantifying
//                   §1's churn argument against naive centralized control);
//   6. degradation fallback — when repaired load drifts past the configured
//                   threshold over a periodically refreshed full-solve
//                   baseline, fall back to a full centralized re-solve,
//                   itself subject to the signaling cap.
//
// A full solve (baseline refresh or fallback) runs on the epoch's compact
// scenario and nothing else: MLA-C is assoc::centralized_mla on an engine
// context rebuilt right before the solve, the other solvers go through
// assoc/registry. The baseline is therefore a pure function of the current
// network — the answer `wmcast_cli solve --algorithm=mla-c` gives for that
// scenario — and never depends on the epochs that led to it.
//
// Telemetry (ctrl/telemetry.hpp) records every step; dump via
// telemetry().to_json().
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/kconn.hpp"
#include "wmcast/assoc/solution.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/ctrl/events.hpp"
#include "wmcast/ctrl/repair_shard.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/ctrl/telemetry.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/association.hpp"

namespace wmcast::ctrl {

struct JoinRequest {
  int slot = -1;
  wlan::Point pos{};
  int session = -1;
};

/// Admission decision for one join: `ap_load` is the per-AP load of the last
/// committed epoch, `state` the pre-drain network state. Return false to
/// refuse service (the user stays present but unsubscribed until it
/// re-subscribes).
using AdmissionHook = std::function<bool(const JoinRequest& request,
                                         const std::vector<double>& ap_load,
                                         const NetworkState& state)>;

struct ControllerConfig {
  /// Registry name of the full re-solve fallback (mla-c, bla-c, mnu-c, ...).
  std::string full_solver = "mla-c";
  bool multi_rate = true;
  /// Repaired total load may exceed the full-solve baseline by this relative
  /// factor before a full re-solve is triggered (0.10 = 10%).
  double degradation_threshold = 0.10;
  /// Bounded-signaling mode: reject any epoch outcome with more than this
  /// many *voluntary* re-associations (changes of users whose current AP is
  /// still valid) and roll back to the minimal forced repair. < 0 = off.
  int max_reassoc_per_epoch = -1;
  /// Refresh the full-solve baseline every N epochs (0 = only when the
  /// degradation fallback runs one anyway).
  int full_refresh_epochs = 10;
  /// Gate joins on per-AP load budgets (default hook) or `admission_hook`.
  bool admission_control = true;
  AdmissionHook admission_hook;  // overrides the built-in budget check
  /// Max events per drain (<= 0 drains everything pending).
  int max_batch = 0;
  /// Minimum load improvement a polish move must buy to justify the handoff
  /// it costs (local_search's min_gain). 0 = accept any improvement.
  double polish_min_gain = 0.02;
  uint64_t seed = 1;
  /// Worker threads for the epoch full-solve's sharded per-session path
  /// (core/parallel.hpp) and the sharded incremental repair
  /// (ctrl/repair_shard.hpp). 1 = serial (the reference semantics); <= 0
  /// resolves WMCAST_THREADS, else 1. The committed association is identical
  /// at any thread count (DESIGN.md §9, §14).
  int threads = 1;
  /// Maximum serving APs per user (DESIGN.md §15-16). 1 = the paper's
  /// single-AP model: nothing changes, bit for bit. k >= 2 maintains a
  /// k-connectivity overlay (multi_assoc()/multi_loads()) on top of the
  /// committed primary association — a dirty user's whole served-set is the
  /// repair unit, never a lone secondary link. The committed primary
  /// association and loads are unchanged at any k.
  int k = 1;
  /// Maintain the k >= 2 overlay incrementally (DESIGN.md §16): the stream
  /// plan, served-set store and settled tx table persist across epochs and
  /// only the dirty region — users whose served-set intersects a dirty AP or
  /// who moved/churned — is re-derived, in parallel over AP-connected
  /// components of the pool. Bitwise identical to the cold re-derivation at
  /// any thread count (the chaos kconn-incremental oracle byte-checks this).
  /// false = re-derive the whole overlay every non-quiescent epoch (the cold
  /// reference path, kept for benches and differential tests).
  bool kconn_incremental = true;
};

/// What one drain()/epoch did, for logs and benches. Cumulative counterparts
/// live in Telemetry.
struct EpochReport {
  int epoch = 0;
  int events = 0;             // drained this epoch
  int events_applied = 0;
  int events_invalid = 0;
  int events_coalesced = 0;   // net no-ops folded away
  int dirty_users = 0;
  bool used_full_solve = false;
  bool rolled_back = false;   // signaling cap forced the minimal repair
  int reassociations = 0;     // slot AP changes committed (incl. joins/drops)
  int handoffs = 0;           // AP -> different-AP moves (802.11 Reassociation)
  int forced_reassociations = 0;
  int voluntary_reassociations = 0;
  int rejected_joins = 0;
  int users_present = 0;
  int users_subscribed = 0;
  int users_served = 0;
  double total_load = 0.0;
  double max_load = 0.0;
  double baseline_load = 0.0;
  double drain_seconds = 0.0;
  // Sharded-repair accounting for the repair that produced the committed
  // association.
  int repair_shards = 0;
  double repair_imbalance = 0.0;
  // Always 0: the coverage engine has no incremental path (every full solve
  // builds its engine from the epoch's scenario, counted by telemetry's
  // counters.engine.full_builds). Kept because perfbench/ reports them.
  int engine_groups_rebuilt = 0;
  int engine_sets_rebuilt = 0;
  // k-connectivity overlay after this epoch (zeros when cfg.k == 1).
  int multi_served_users = 0;
  double mean_effective_rate = 0.0;
  // Overlay maintenance this epoch: users re-derived vs carried untouched by
  // the dirty-region repair, and whether a cold full re-derivation ran. A
  // kconn-quiescent epoch (nothing dirty) reports all zeros and keeps the
  // cached overlay.
  int kconn_repaired_users = 0;
  int kconn_carried_users = 0;
  bool kconn_rebuild = false;
};

class AssociationController {
 public:
  /// Seeds the controller from a geometric scenario (all users present and
  /// subscribed; moved users' link rates come from the scenario's own rate
  /// table) and computes the initial association + baseline with the
  /// configured full solver. An invalid config (unknown full_solver, negative
  /// degradation_threshold, k < 1) throws std::invalid_argument before any
  /// of that work starts.
  explicit AssociationController(const wlan::Scenario& initial,
                                 ControllerConfig cfg = {});

  /// Enqueues events (thread-safe; drained on the next drain()).
  void submit(const Event& e) { queue_.push(e); }
  void submit(const std::vector<Event>& batch) { queue_.push_all(batch); }
  size_t pending_events() const { return queue_.size(); }

  /// Drains one batch and runs the incremental epoch. Safe to call with an
  /// empty queue (a quiescent epoch: nothing dirty, nothing changes).
  EpochReport drain();

  // State of the last committed epoch.
  const NetworkState& state() const { return state_; }
  const std::vector<int>& slot_ap() const { return slot_ap_; }
  const wlan::Scenario& scenario() const { return compact_sc_; }
  const std::vector<int>& row_slot() const { return row_slot_; }
  const wlan::LoadReport& loads() const { return loads_; }
  double baseline_load() const { return baseline_load_; }
  int epochs() const { return epoch_index_; }

  /// k-connectivity overlay of the last committed epoch (ControllerConfig::k
  /// >= 2; empty served-sets at k == 1). Row-indexed like scenario().
  const wlan::MultiAssociation& multi_assoc() const { return multi_assoc_; }
  const wlan::MultiLoadReport& multi_loads() const { return multi_loads_; }
  int k() const { return cfg_.k; }
  /// Cumulative wall seconds spent in refresh_multi (overlay repair/rebuild),
  /// including the constructor's cold build. Diagnostics for benches that
  /// isolate the overlay step from base repair; deliberately NOT part of
  /// telemetry so modeled-serve telemetry stays a pure function of the
  /// workload (the CI byte-diff legs depend on that).
  double kconn_seconds() const { return kconn_seconds_; }

  Telemetry& telemetry() { return tele_; }
  const Telemetry& telemetry() const { return tele_; }

 private:
  struct ChangeCount {
    int total = 0;      // any slot AP change, including joins and drops
    int handoffs = 0;   // AP -> different-AP moves (802.11 Reassociation frames)
    int forced = 0;     // old AP invalidated (left, unsubscribed, moved out of range)
    int voluntary = 0;  // old AP still valid, optimizer moved or dropped the user
  };

  bool admit(const JoinRequest& req) const;
  assoc::Solution solve_full(const wlan::Scenario& sc);
  wlan::Association repair(const wlan::Scenario& sc, const wlan::Association& carried,
                           const std::vector<int>& movable_rows, bool polish);
  ChangeCount count_changes(const std::vector<int>& old_slot_ap,
                            const std::vector<int>& new_slot_ap,
                            const NetworkState& next) const;
  /// Re-derives the k-connectivity overlay from the committed association
  /// (no-op at k == 1; kconn-quiescent epochs reuse the cached overlay).
  /// Called with null from the constructor, with the epoch report from
  /// drain(). Cold path (first derivation, session-rate change, or
  /// cfg_.kconn_incremental off): serial full re-derivation. Incremental
  /// path: re-plan dirty APs, re-derive only dirty rows (in parallel over
  /// AP-connected components), carry every other slot's served-set from
  /// kconn_served_, re-settle only touched APs. Both paths produce bitwise
  /// identical overlays and load reports.
  void refresh_multi(EpochReport* rep);
  /// Translates this epoch's applied slot deltas into kconn dirty marks
  /// (dirty APs whose stream plan may change + dirty slots whose served-set
  /// must be re-derived). Runs during drain() while the PRE-commit state_
  /// / compact_sc_ / row_slot_ and the post-epoch `next` / `new_slot_ap`
  /// coexist, because old heard-sets come from the old projection. A
  /// session-rate change sets kconn_rate_changed_ (cold rebuild: rates feed
  /// every stream's cost and advertised floor).
  void kconn_mark_dirty(const NetworkState& next,
                        const std::vector<int>& new_slot_ap);

  ControllerConfig cfg_;
  NetworkState state_;
  std::vector<int> slot_ap_;
  wlan::Scenario compact_sc_;
  std::vector<int> row_slot_;
  wlan::LoadReport loads_;
  double baseline_load_ = 0.0;
  int epochs_since_refresh_ = 0;
  int epoch_index_ = 0;
  EventQueue queue_;
  Telemetry tele_;
  util::Rng rng_;

  // Full-solve engine (rebuilt from the epoch's scenario before each MLA-C
  // solve, reusing its arenas' capacity) + reusable repair scratch.
  assoc::EngineContext ctx_;
  util::ThreadPool pool_;            // sized from cfg_.threads (1 = inline)
  core::AssocWorkspace repair_ws_;
  std::vector<RepairLaneWorkspace> repair_lanes_;  // per-pool-lane repair scratch
  RepairShardStats last_repair_stats_;

  // k-connectivity overlay state (cfg_.k >= 2 only). The persistent engine
  // (DESIGN.md §16) keys its cross-epoch stores by what is stable across
  // epochs: the stream plan and settled tx by AP, the served-sets by slot
  // (rows are remapped every epoch; multi_assoc_'s row-space view is rebuilt
  // O(n·k) from kconn_served_ after each repair).
  wlan::MultiAssociation multi_assoc_;
  wlan::MultiLoadReport multi_loads_;
  bool multi_valid_ = false;
  assoc::KconnPlan kconn_plan_;                 // [ap][session] advert/startable
  std::vector<std::vector<double>> kconn_tx_;   // settled tx, [ap][session]
  std::vector<std::vector<int>> kconn_served_;  // served APs by SLOT (sorted)
  std::vector<int> kconn_dirty_aps_;            // this epoch's dirty APs
  std::vector<char> kconn_ap_mark_;
  std::vector<int> kconn_dirty_slots_;          // slots to re-derive
  std::vector<char> kconn_slot_mark_;
  bool kconn_rate_changed_ = false;             // forces a cold rebuild
  std::vector<int> kconn_settle_hint_;          // old/new primaries of dirty slots
  std::vector<int> kconn_rescan_aps_;           // pmin rows needing a full rescan
  std::vector<char> kconn_rescan_mark_;
  std::vector<assoc::KconnScratch> kconn_lanes_;  // per-pool-lane derive scratch
  double kconn_seconds_ = 0.0;                  // cumulative refresh_multi wall time
};

}  // namespace wmcast::ctrl
