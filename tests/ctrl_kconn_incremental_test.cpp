// Incremental k-connectivity overlay (DESIGN.md §16): the persistent kconn
// engine's dirty-region repair must be bitwise-indistinguishable from a cold
// augment_to_k + compute_multi_loads re-derivation after every epoch, at any
// thread count, stream-rate changes included — and quiescent-equivalent
// epochs (rejected admissions, no-op rate changes, join+leave coalescing)
// must keep the cached overlay untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "wmcast/assoc/kconn.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::ctrl {
namespace {

wlan::Scenario churn_scenario(uint64_t seed) {
  wlan::GeneratorParams gp;
  gp.n_aps = 30;
  gp.n_users = 220;
  gp.n_sessions = 4;
  gp.area_side_m = 700.0;
  util::Rng rng(seed);
  return wlan::generate_scenario(gp, rng);
}

EventTrace churn_trace(const NetworkState& initial, int epochs, uint64_t seed,
                       double rate_change_prob = 0.1) {
  TraceParams tp;
  tp.epochs = epochs;
  tp.move_fraction = 0.15;
  tp.walk_sigma_m = 30.0;
  tp.zap_fraction = 0.05;
  tp.leave_fraction = 0.03;
  tp.join_fraction = 0.05;
  tp.rate_change_prob = rate_change_prob;
  util::Rng rng(seed);
  return generate_churn_trace(initial, tp, rng);
}

// Bitwise cold reference: re-derive the overlay and its load report from the
// controller's own committed base association (mirrors chaos/oracles.cpp).
void expect_matches_cold(const AssociationController& c,
                         const ControllerConfig& cfg, int epoch) {
  const wlan::Scenario& sc = c.scenario();
  assoc::KconnParams kp;
  kp.k = cfg.k;
  kp.multi_rate = cfg.multi_rate;
  kp.enforce_budget = true;  // as the controller does
  const auto cold =
      assoc::augment_to_k(sc, wlan::Association{c.slot_ap()}, c.loads(), kp);
  ASSERT_TRUE(cold == c.multi_assoc())
      << "epoch " << epoch << ": incremental served-sets diverge from cold";
  const auto loads = wlan::compute_multi_loads(sc, cold, kp.multi_rate);
  const auto& m = c.multi_loads();
  ASSERT_EQ(loads.tx_rate, m.tx_rate) << "epoch " << epoch;
  ASSERT_EQ(loads.ap_load, m.ap_load) << "epoch " << epoch;
  ASSERT_EQ(loads.effective_rate, m.effective_rate) << "epoch " << epoch;
  ASSERT_EQ(loads.total_load, m.total_load) << "epoch " << epoch;
  ASSERT_EQ(loads.max_load, m.max_load) << "epoch " << epoch;
  ASSERT_EQ(loads.mean_effective_rate, m.mean_effective_rate) << "epoch " << epoch;
  ASSERT_EQ(loads.satisfied_users, m.satisfied_users) << "epoch " << epoch;
  ASSERT_EQ(loads.multi_served_users, m.multi_served_users) << "epoch " << epoch;
  ASSERT_EQ(loads.budget_violations, m.budget_violations) << "epoch " << epoch;
}

void run_sweep(int k, int threads) {
  const auto sc = churn_scenario(401);
  const auto initial = NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 50, 402);

  ControllerConfig cfg;
  cfg.k = k;
  cfg.threads = threads;
  cfg.full_refresh_epochs = 1;  // fresh base every epoch: maximal overlay churn
  AssociationController c(sc, cfg);
  expect_matches_cold(c, cfg, 0);
  int repaired = 0;
  for (size_t ep = 0; ep < trace.epochs.size(); ++ep) {
    c.submit(trace.epochs[ep]);
    const auto rep = c.drain();
    repaired += rep.kconn_repaired_users;
    expect_matches_cold(c, cfg, static_cast<int>(ep) + 1);
  }
  // The sweep must actually exercise the incremental path, not degrade into
  // 50 cold rebuilds that trivially match the reference.
  EXPECT_GT(repaired, 0) << "no epoch took the dirty-region repair path";
}

TEST(KconnIncremental, ChurnSweepMatchesColdK2Serial) { run_sweep(2, 1); }
TEST(KconnIncremental, ChurnSweepMatchesColdK2Threads4) { run_sweep(2, 4); }
TEST(KconnIncremental, ChurnSweepMatchesColdK3Serial) { run_sweep(3, 1); }
TEST(KconnIncremental, ChurnSweepMatchesColdK3Threads4) { run_sweep(3, 4); }

// A stream-rate change moves no link and no tx rate, only the budget gate on
// silent streams: an epoch that carries one repairs the overlay's dirty
// region like any other, and the constructor's first derivation stays the
// only one counted as a rebuild.
TEST(KconnIncremental, RateChangeEpochsRepairTheOverlay) {
  const auto sc = churn_scenario(403);
  const auto initial = NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 20, 404, /*rate_change_prob=*/1.0);
  for (const auto& epoch : trace.epochs) {
    ASSERT_EQ(std::count_if(epoch.begin(), epoch.end(),
                            [](const Event& e) {
                              return e.type == EventType::kRateChange;
                            }),
              1);
  }
  for (const int k : {2, 3}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " threads=" << threads);
      ControllerConfig cfg;
      cfg.k = k;
      cfg.threads = threads;
      AssociationController c(sc, cfg);
      const uint64_t rebuilds = c.telemetry().engine_kconn_rebuilds.value();
      EXPECT_EQ(rebuilds, 1u);
      expect_matches_cold(c, cfg, 0);
      for (size_t ep = 0; ep < trace.epochs.size(); ++ep) {
        c.submit(trace.epochs[ep]);
        c.drain();
        expect_matches_cold(c, cfg, static_cast<int>(ep) + 1);
      }
      // Every epoch moved a stream rate, so none was quiescent, and each was
      // a repair rather than a second derivation from scratch.
      EXPECT_EQ(c.telemetry().engine_kconn_rebuilds.value(), rebuilds);
      EXPECT_EQ(c.telemetry().engine_kconn_repairs.value(), trace.epochs.size());
    }
  }
}

TEST(KconnIncremental, SerialAndParallelOverlaysAreBitwiseEqual) {
  const auto sc = churn_scenario(77);
  const auto initial = NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 50, 78);

  ControllerConfig cfg;
  cfg.k = 2;
  cfg.threads = 1;
  ControllerConfig cfg4 = cfg;
  cfg4.threads = 4;
  AssociationController c1(sc, cfg);
  AssociationController c4(sc, cfg4);
  for (const auto& epoch : trace.epochs) {
    c1.submit(epoch);
    c4.submit(epoch);
    const auto r1 = c1.drain();
    const auto r4 = c4.drain();
    ASSERT_TRUE(c1.multi_assoc() == c4.multi_assoc());
    ASSERT_EQ(c1.multi_loads().effective_rate, c4.multi_loads().effective_rate);
    // The dirty-region accounting is a pure function of the deltas, so the
    // per-epoch counters must not depend on the pool schedule either.
    ASSERT_EQ(r1.kconn_repaired_users, r4.kconn_repaired_users);
    ASSERT_EQ(r1.kconn_carried_users, r4.kconn_carried_users);
  }
  EXPECT_EQ(c1.telemetry().engine_kconn_repairs.value(),
            c4.telemetry().engine_kconn_repairs.value());
  EXPECT_EQ(c1.telemetry().engine_kconn_rebuilds.value(),
            c4.telemetry().engine_kconn_rebuilds.value());
}

// --- Quiescent-equivalent epochs keep the cached overlay -------------------

wlan::Scenario two_ap_scenario() {
  const std::vector<wlan::Point> aps = {{0, 0}, {150, 0}};
  return wlan::Scenario::from_geometry(aps, {{10, 0}, {120, 0}, {80, 0}},
                                       {0, 1, 0}, {1.0, 1.0},
                                       wlan::RateTable::ieee80211a(), 0.9);
}

TEST(KconnIncremental, RejectedAdmissionKeepsCachedOverlay) {
  ControllerConfig cfg;
  cfg.k = 2;
  cfg.admission_hook = [](const JoinRequest&, const std::vector<double>&,
                          const NetworkState&) { return false; };
  AssociationController c(two_ap_scenario(), cfg);
  const uint64_t repairs = c.telemetry().engine_kconn_repairs.value();
  const uint64_t rebuilds = c.telemetry().engine_kconn_rebuilds.value();
  const auto overlay = c.multi_assoc();

  c.submit({Event::join(3, {60, 0}, 0)});
  const auto rep = c.drain();
  EXPECT_EQ(rep.rejected_joins, 1);
  EXPECT_EQ(rep.kconn_repaired_users, 0);
  EXPECT_EQ(c.telemetry().engine_kconn_repairs.value(), repairs);
  EXPECT_EQ(c.telemetry().engine_kconn_rebuilds.value(), rebuilds);
  // The overlay is indexed by slot: the refused slot 3 gets an empty set.
  auto expected = overlay;
  expected.user_aps.emplace_back();
  EXPECT_TRUE(c.multi_assoc() == expected);
}

TEST(KconnIncremental, NoOpRateChangeKeepsCachedOverlay) {
  ControllerConfig cfg;
  cfg.k = 2;
  AssociationController c(two_ap_scenario(), cfg);
  const uint64_t repairs = c.telemetry().engine_kconn_repairs.value();
  const uint64_t rebuilds = c.telemetry().engine_kconn_rebuilds.value();

  c.submit({Event::rate_change(0, c.state().session_rate(0))});
  const auto rep = c.drain();
  EXPECT_EQ(rep.events_applied, 1);
  EXPECT_EQ(rep.kconn_repaired_users, 0);
  EXPECT_EQ(c.telemetry().engine_kconn_repairs.value(), repairs);
  EXPECT_EQ(c.telemetry().engine_kconn_rebuilds.value(), rebuilds);
}

TEST(KconnIncremental, JoinPlusLeaveCoalescedKeepsCachedOverlay) {
  ControllerConfig cfg;
  cfg.k = 2;
  AssociationController c(two_ap_scenario(), cfg);
  const uint64_t repairs = c.telemetry().engine_kconn_repairs.value();
  const uint64_t rebuilds = c.telemetry().engine_kconn_rebuilds.value();
  const auto overlay = c.multi_assoc();

  c.submit({Event::join(3, {60, 0}, 0), Event::leave(3)});
  const auto rep = c.drain();
  EXPECT_EQ(rep.kconn_repaired_users, 0);
  EXPECT_EQ(c.telemetry().engine_kconn_repairs.value(), repairs);
  EXPECT_EQ(c.telemetry().engine_kconn_rebuilds.value(), rebuilds);
  // The overlay is indexed by slot: the departed slot 3 has an empty set.
  auto expected = overlay;
  expected.user_aps.emplace_back();
  EXPECT_TRUE(c.multi_assoc() == expected);
}

// A genuinely dirty epoch must NOT be treated as quiescent: the narrow
// predicate is "no dirt", not "no events".
TEST(KconnIncremental, RealChurnStillRepairs) {
  ControllerConfig cfg;
  cfg.k = 2;
  AssociationController c(two_ap_scenario(), cfg);
  c.submit({Event::move(2, {130, 0})});
  const auto rep = c.drain();
  EXPECT_GT(rep.kconn_repaired_users, 0)
      << "a visible move must re-derive at least the moved user's served-set";
  expect_matches_cold(c, cfg, 1);
}

}  // namespace
}  // namespace wmcast::ctrl
