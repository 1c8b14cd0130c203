#include "wmcast/ctrl/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace wmcast::ctrl {
namespace {

TEST(BucketHistogram, ValidatesBounds) {
  EXPECT_THROW(BucketHistogram({}), std::invalid_argument);
  EXPECT_THROW(BucketHistogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(BucketHistogram::exponential(0.0, 2.0, 4), std::invalid_argument);
}

TEST(BucketHistogram, RecordsIntoTheRightBuckets) {
  BucketHistogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // <= 1
  h.record(1.0);    // <= 1 (bound is inclusive)
  h.record(5.0);    // <= 10
  h.record(500.0);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 506.5);
  EXPECT_DOUBLE_EQ(h.min_value(), 0.5);
  EXPECT_DOUBLE_EQ(h.max_value(), 500.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5) << "q=0 reports the exact min";
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 500.0) << "overflow reports the exact max";
}

// Documented contract: an empty histogram has no quantiles (NaN), a single
// sample is every quantile of itself, and serialization stays numeric.
TEST(BucketHistogram, EmptyAndSingleSampleQuantiles) {
  BucketHistogram h(std::vector<double>{10.0, 100.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.0)));
  EXPECT_DOUBLE_EQ(h.to_json().find("p50")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(h.to_json().find("p99")->as_double(), 0.0);

  h.record(42.0);  // lands in the 100.0 bucket; the sample itself is 42
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 42.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.to_json().find("p50")->as_double(), 42.0);
}

TEST(BucketHistogram, ExponentialLadder) {
  const auto h = BucketHistogram::exponential(1.0, 2.0, 4);
  EXPECT_EQ(h.upper_bounds(), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST(BucketHistogram, JsonCarriesTheFullDistribution) {
  BucketHistogram h({1.0, 2.0});
  h.record(0.5);
  h.record(1.5);
  const auto j = h.to_json();
  ASSERT_NE(j.find("upper_bounds"), nullptr);
  EXPECT_EQ(j.find("upper_bounds")->size(), 2u);
  EXPECT_EQ(j.find("counts")->size(), 3u);
  EXPECT_EQ(j.find("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(j.find("mean")->as_double(), 1.0);
}

TEST(Telemetry, JsonMatchesTheDocumentedSchema) {
  Telemetry t;
  t.events_ingested.inc(5);
  t.handoffs.inc(2);
  t.total_load.set(6.5);
  t.dirty_region_size.record(12.0);

  const auto j = t.to_json();
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->as_string(), kTelemetrySchema);

  const auto* counters = j.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* key :
       {"events_ingested", "events_applied", "events_coalesced", "events_invalid",
        "events_by_type", "drains", "epochs", "incremental_repairs",
        "warm_escalations", "full_solves", "baseline_refreshes", "rollbacks",
        "full_solve_rejections", "joins_admitted", "joins_rejected",
        "reassociations", "handoffs", "forced_reassociations"}) {
    EXPECT_NE(counters->find(key), nullptr) << "missing counter " << key;
  }
  EXPECT_EQ(counters->find("events_ingested")->as_int(), 5);
  EXPECT_EQ(counters->find("handoffs")->as_int(), 2);
  EXPECT_EQ(counters->find("events_by_type")->size(), 6u);

  // v2: the engine block carries only mechanisms that exist.
  const auto* engine = counters->find("engine");
  ASSERT_NE(engine, nullptr);
  std::vector<std::string> engine_keys;
  for (const auto& [key, value] : engine->members()) engine_keys.push_back(key);
  EXPECT_EQ(engine_keys, (std::vector<std::string>{"full_builds", "parallel", "kconn"}));
  const auto* parallel = engine->find("parallel");
  ASSERT_NE(parallel, nullptr);
  for (const auto& [key, value] : parallel->members()) {
    EXPECT_NE(key.rfind("arena_", 0), 0u) << "stale parallel key " << key;
  }

  const auto* gauges = j.find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* key : {"users_present", "users_subscribed", "users_served",
                          "total_load", "max_load", "baseline_load",
                          "degradation_pct", "queue_depth"}) {
    EXPECT_NE(gauges->find(key), nullptr) << "missing gauge " << key;
  }
  EXPECT_DOUBLE_EQ(gauges->find("total_load")->as_double(), 6.5);

  const auto* histograms = j.find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* key : {"dirty_region_size", "reassoc_per_epoch", "drain_seconds"}) {
    EXPECT_NE(histograms->find(key), nullptr) << "missing histogram " << key;
  }
  EXPECT_EQ(histograms->find("dirty_region_size")->find("count")->as_int(), 1);

  // The dump must survive a strict re-parse (what benches validate).
  const auto reparsed = util::Json::parse(j.dump(2));
  EXPECT_EQ(reparsed.find("schema")->as_string(), kTelemetrySchema);
}

}  // namespace
}  // namespace wmcast::ctrl
