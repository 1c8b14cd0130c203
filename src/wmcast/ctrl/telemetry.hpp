// Built-in telemetry for the association controller: monotonic counters,
// gauges, and bucketed histograms (log-scaled latency / size distributions),
// dumped as JSON under the documented `wmcast-ctrl-telemetry/v2` schema (see
// DESIGN.md §Controller).
#pragma once

#include <cstdint>
#include <vector>

#include "wmcast/util/histogram.hpp"
#include "wmcast/util/json.hpp"

namespace wmcast::ctrl {

inline constexpr const char* kTelemetrySchema = "wmcast-ctrl-telemetry/v2";

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_ += n; }
  uint64_t value() const { return v_; }

 private:
  uint64_t v_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// The bucketed histogram now lives in util (shared with the serve
/// subsystem's latency instruments); the alias keeps the established
/// controller-facing name.
using BucketHistogram = util::Histogram;

/// The controller's fixed instrument set. Field names match the JSON keys.
struct Telemetry {
  Telemetry();

  // Counters.
  Counter events_ingested;        // drained from the queue
  Counter events_applied;         // accepted state mutations
  Counter events_coalesced;       // folded away within a drain (net no-ops)
  Counter events_invalid;         // rejected as malformed
  std::vector<Counter> events_by_type;  // indexed by EventType
  Counter drains;
  Counter epochs;
  Counter incremental_repairs;
  Counter warm_escalations;       // degradation fixed by a global warm polish
  Counter full_solves;            // full re-solves adopted
  Counter baseline_refreshes;     // full solves run only to refresh the baseline
  Counter rollbacks;              // epochs rolled back to the minimal repair
  Counter full_solve_rejections;  // full solutions rejected by the signaling cap
  Counter joins_admitted;
  Counter joins_rejected;         // refused by the admission hook
  Counter reassociations;         // slot AP changes committed (incl. joins/drops)
  Counter handoffs;               // AP -> different-AP moves (Reassociation frames)
  Counter forced_reassociations;  // subset forced by invalidated associations

  // Coverage-engine builds. Every MLA-C full solve builds its engine from
  // the epoch's scenario; the engine has no incremental path.
  Counter engine_full_builds;          // whole-system projections

  // Sharded parallel solve accounting (core/parallel.hpp; additive keys under
  // counters.engine.parallel). Zero unless the controller runs with threads > 1.
  Counter engine_parallel_solves;      // sharded full solves executed
  Counter engine_parallel_tasks;       // shards dispatched across all of them

  // Sharded incremental-repair accounting (ctrl/repair_shard.hpp; additive
  // keys under counters.engine.parallel). Unlike the solve counters these are
  // thread-invariant: the task partition is fixed before dispatch, so the
  // same workload reports the same numbers at any --threads.
  Counter engine_parallel_repair_calls;   // sharded repair invocations
  Counter engine_parallel_repair_shards;  // repair tasks dispatched across them

  // Persistent k-connectivity engine accounting (DESIGN.md §16; additive keys
  // under counters.engine.kconn). Thread-invariant: dirty regions are a pure
  // function of the applied state deltas, never of the pool schedule.
  Counter engine_kconn_repairs;         // dirty-region overlay repairs
  Counter engine_kconn_repaired_users;  // users re-derived across them
  Counter engine_kconn_carried_users;   // users carried untouched across them
  Counter engine_kconn_rebuilds;        // the constructor's first derivation

  // Gauges (state as of the last committed epoch).
  Gauge users_present;
  Gauge users_subscribed;
  Gauge users_served;
  Gauge total_load;
  Gauge max_load;
  Gauge baseline_load;
  Gauge degradation_pct;          // (total_load / baseline_load - 1) * 100
  Gauge queue_depth;
  Gauge engine_parallel_workers;    // pool lanes used by the last sharded solve
  Gauge engine_parallel_imbalance;  // max/mean shard weight of that solve
  Gauge engine_parallel_repair_imbalance;  // max/mean dirty users per repair task

  // Histograms.
  BucketHistogram dirty_region_size;
  BucketHistogram reassoc_per_epoch;
  BucketHistogram drain_seconds;

  /// Serializes under the wmcast-ctrl-telemetry/v2 schema.
  util::Json to_json() const;
};

}  // namespace wmcast::ctrl
