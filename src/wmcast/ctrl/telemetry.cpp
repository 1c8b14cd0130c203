#include "wmcast/ctrl/telemetry.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "wmcast/ctrl/events.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/histogram.hpp"

namespace wmcast::ctrl {

// BucketHistogram is util::Histogram (util/histogram.cpp) since the serve
// subsystem began sharing the instrument; only the Telemetry struct lives here.

namespace {

constexpr EventType kAllEventTypes[] = {
    EventType::kUserJoin, EventType::kUserLeave,  EventType::kUserMove,
    EventType::kRateChange, EventType::kSubscribe, EventType::kUnsubscribe,
};

}  // namespace

Telemetry::Telemetry()
    : events_by_type(std::size(kAllEventTypes)),
      // Dirty regions: 1 .. ~4k users per drain.
      dirty_region_size(BucketHistogram::exponential(1.0, 2.0, 13)),
      // Re-associations committed per epoch, same scale.
      reassoc_per_epoch(BucketHistogram::exponential(1.0, 2.0, 13)),
      // Drain wall time: 1 µs .. ~16 s.
      drain_seconds(BucketHistogram::exponential(1e-6, 4.0, 13)) {}

util::Json Telemetry::to_json() const {
  util::Json counters = util::Json::object();
  counters.set("events_ingested", static_cast<int64_t>(events_ingested.value()));
  counters.set("events_applied", static_cast<int64_t>(events_applied.value()));
  counters.set("events_coalesced", static_cast<int64_t>(events_coalesced.value()));
  counters.set("events_invalid", static_cast<int64_t>(events_invalid.value()));
  util::Json by_type = util::Json::object();
  for (const EventType t : kAllEventTypes) {
    by_type.set(event_type_name(t),
                static_cast<int64_t>(events_by_type[static_cast<size_t>(t)].value()));
  }
  counters.set("events_by_type", std::move(by_type));
  counters.set("drains", static_cast<int64_t>(drains.value()));
  counters.set("epochs", static_cast<int64_t>(epochs.value()));
  counters.set("incremental_repairs", static_cast<int64_t>(incremental_repairs.value()));
  counters.set("warm_escalations", static_cast<int64_t>(warm_escalations.value()));
  counters.set("full_solves", static_cast<int64_t>(full_solves.value()));
  counters.set("baseline_refreshes", static_cast<int64_t>(baseline_refreshes.value()));
  counters.set("rollbacks", static_cast<int64_t>(rollbacks.value()));
  counters.set("full_solve_rejections",
               static_cast<int64_t>(full_solve_rejections.value()));
  counters.set("joins_admitted", static_cast<int64_t>(joins_admitted.value()));
  counters.set("joins_rejected", static_cast<int64_t>(joins_rejected.value()));
  counters.set("reassociations", static_cast<int64_t>(reassociations.value()));
  counters.set("handoffs", static_cast<int64_t>(handoffs.value()));
  counters.set("forced_reassociations",
               static_cast<int64_t>(forced_reassociations.value()));
  util::Json engine = util::Json::object();
  engine.set("full_builds", static_cast<int64_t>(engine_full_builds.value()));
  util::Json parallel = util::Json::object();
  parallel.set("solves", static_cast<int64_t>(engine_parallel_solves.value()));
  parallel.set("tasks", static_cast<int64_t>(engine_parallel_tasks.value()));
  parallel.set("workers", engine_parallel_workers.value());
  parallel.set("imbalance", engine_parallel_imbalance.value());
  parallel.set("repair_calls",
               static_cast<int64_t>(engine_parallel_repair_calls.value()));
  parallel.set("repair_shards",
               static_cast<int64_t>(engine_parallel_repair_shards.value()));
  parallel.set("repair_imbalance", engine_parallel_repair_imbalance.value());
  engine.set("parallel", std::move(parallel));
  util::Json kconn = util::Json::object();
  kconn.set("repairs", static_cast<int64_t>(engine_kconn_repairs.value()));
  kconn.set("repaired_users",
            static_cast<int64_t>(engine_kconn_repaired_users.value()));
  kconn.set("carried_users",
            static_cast<int64_t>(engine_kconn_carried_users.value()));
  kconn.set("engine_rebuilds", static_cast<int64_t>(engine_kconn_rebuilds.value()));
  engine.set("kconn", std::move(kconn));
  counters.set("engine", std::move(engine));

  util::Json gauges = util::Json::object();
  gauges.set("users_present", users_present.value());
  gauges.set("users_subscribed", users_subscribed.value());
  gauges.set("users_served", users_served.value());
  gauges.set("total_load", total_load.value());
  gauges.set("max_load", max_load.value());
  gauges.set("baseline_load", baseline_load.value());
  gauges.set("degradation_pct", degradation_pct.value());
  gauges.set("queue_depth", queue_depth.value());

  util::Json histograms = util::Json::object();
  histograms.set("dirty_region_size", dirty_region_size.to_json());
  histograms.set("reassoc_per_epoch", reassoc_per_epoch.to_json());
  histograms.set("drain_seconds", drain_seconds.to_json());

  util::Json j = util::Json::object();
  j.set("schema", kTelemetrySchema);
  j.set("counters", std::move(counters));
  j.set("gauges", std::move(gauges));
  j.set("histograms", std::move(histograms));
  return j;
}

}  // namespace wmcast::ctrl
