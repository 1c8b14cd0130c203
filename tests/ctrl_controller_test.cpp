#include "wmcast/ctrl/controller.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::ctrl {
namespace {

wlan::Scenario two_ap_scenario(std::vector<wlan::Point> users, std::vector<int> sessions,
                               std::vector<double> rates = {1.0, 1.0},
                               double budget = 0.9) {
  const std::vector<wlan::Point> aps = {{0, 0}, {150, 0}};
  return wlan::Scenario::from_geometry(aps, std::move(users), std::move(sessions),
                                       std::move(rates),
                                       wlan::RateTable::ieee80211a(), budget);
}

TEST(Controller, QuiescentEpochChangesNothing) {
  AssociationController c(two_ap_scenario({{10, 0}, {120, 0}}, {0, 1}));
  const auto before = c.slot_ap();
  const auto rep = c.drain();
  EXPECT_EQ(rep.events, 0);
  EXPECT_EQ(rep.dirty_users, 0);
  EXPECT_EQ(rep.reassociations, 0);
  EXPECT_EQ(c.slot_ap(), before);
}

TEST(Controller, JoinPlusLeaveCoalescesToNoOp) {
  AssociationController c(two_ap_scenario({{10, 0}, {120, 0}}, {0, 1}));
  const auto before = c.slot_ap();
  c.submit({Event::join(2, {20, 0}, 0), Event::leave(2)});
  const auto rep = c.drain();
  EXPECT_EQ(rep.events_applied, 2);
  EXPECT_EQ(rep.events_coalesced, 2) << "join+leave of the same user in one batch";
  EXPECT_EQ(rep.dirty_users, 0);
  EXPECT_EQ(rep.reassociations, 0);
  EXPECT_EQ(c.telemetry().events_coalesced.value(), 2u);
  // The slot space grew but the newcomer is invisible to the optimizer.
  EXPECT_EQ(c.state().n_slots(), 3);
  EXPECT_FALSE(c.state().slot(2).present);
  ASSERT_EQ(c.slot_ap().size(), 3u);
  EXPECT_EQ(c.slot_ap()[0], before[0]);
  EXPECT_EQ(c.slot_ap()[1], before[1]);
  EXPECT_EQ(c.slot_ap()[2], wlan::kNoAp);
}

// User s of the epoch scenario is slot s: after every epoch the scenario has
// one row per slot, a slot that wants no service has an empty row (and, at
// k = 2, an empty served-set), and every other slot's row is the geometric
// build at its position.
TEST(Controller, EpochScenarioRowsAreSlots) {
  wlan::GeneratorParams p;
  p.n_aps = 60;
  p.n_users = 300;
  util::Rng rng(23);
  const auto sc0 = wlan::generate_scenario(p, rng);
  const std::vector<std::vector<Event>> trace = {
      {Event::leave(5), Event::leave(17), Event::move(3, {400, 400}),
       Event::subscribe(8, 2), Event::unsubscribe(20)},
      // Slot 300 extends the slot space; the hook refuses slot 301.
      {Event::join(300, {500, 500}, 0), Event::join(301, {510, 500}, 1),
       Event::leave(40), Event::subscribe(20, 0), Event::move(9, {100, 900})},
      {Event::join(5, {700, 200}, 1), Event::leave(300), Event::subscribe(50, 4),
       Event::move(18, {1000, 50})},
      {Event::leave(301), Event::unsubscribe(60), Event::move(61, {20, 20})},
      {},
  };
  for (const int k : {1, 2}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("k " + std::to_string(k) + " threads " + std::to_string(threads));
      ControllerConfig cfg;
      cfg.k = k;
      cfg.threads = threads;
      cfg.admission_hook = [](const JoinRequest& req, const std::vector<double>&,
                              const NetworkState&) { return req.slot != 301; };
      AssociationController c(sc0, cfg);
      for (size_t e = 0; e < trace.size(); ++e) {
        SCOPED_TRACE("epoch " + std::to_string(e));
        c.submit(trace[e]);
        const auto rep = c.drain();
        ASSERT_EQ(rep.events_invalid, 0);
        const NetworkState& st = c.state();
        const wlan::Scenario& sc = c.scenario();
        ASSERT_EQ(sc.n_users(), st.n_slots());
        ASSERT_EQ(c.slot_ap().size(), static_cast<size_t>(st.n_slots()));
        if (k == 2) {
          ASSERT_EQ(c.multi_assoc().n_users(), st.n_slots());
        }

        std::vector<wlan::Point> pos;
        std::vector<int> sessions;
        for (int s = 0; s < st.n_slots(); ++s) {
          pos.push_back(st.slot(s).pos);
          sessions.push_back(st.slot(s).session);
        }
        std::vector<double> rates;
        for (int t = 0; t < st.n_sessions(); ++t) rates.push_back(st.session_rate(t));
        const auto geo = wlan::Scenario::from_geometry(st.ap_positions(), pos, sessions,
                                                       rates, st.rate_table(),
                                                       st.load_budget());
        for (int s = 0; s < st.n_slots(); ++s) {
          if (!st.slot(s).wants_service()) {
            EXPECT_TRUE(sc.aps_of_user(s).empty()) << "slot " << s;
            EXPECT_EQ(c.slot_ap()[static_cast<size_t>(s)], wlan::kNoAp) << "slot " << s;
            if (k == 2) {
              EXPECT_TRUE(c.multi_assoc().aps_of(s).empty()) << "slot " << s;
            }
            continue;
          }
          EXPECT_EQ(sc.user_session(s), st.slot(s).session) << "slot " << s;
          ASSERT_EQ(sc.aps_of_user(s), geo.aps_of_user(s)) << "slot " << s;
          for (size_t i = 0; i < geo.aps_of_user(s).size(); ++i) {
            EXPECT_EQ(sc.rates_of_user(s)[i], geo.rates_of_user(s)[i]) << "slot " << s;
          }
        }
      }
      EXPECT_EQ(c.telemetry().joins_rejected.value(), 1u);
      EXPECT_EQ(c.state().n_slots(), 302);
    }
  }
}

TEST(Controller, InvalidEventsAreCountedNotFatal) {
  AssociationController c(two_ap_scenario({{10, 0}, {120, 0}}, {0, 1}));
  c.submit({Event::leave(99), Event::move(0, {11, 0})});
  const auto rep = c.drain();
  EXPECT_EQ(rep.events_invalid, 1);
  EXPECT_EQ(rep.events_applied, 1);
}

TEST(Controller, NonFiniteEventsAreCountedNotFatal) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  AssociationController c(two_ap_scenario({{10, 0}, {120, 0}}, {0, 1}));
  c.submit({Event::join(2, {nan, 0}, 0), Event::move(0, {0, inf}),
            Event::rate_change(0, nan), Event::move(0, {11, 0})});
  const auto rep = c.drain();
  EXPECT_EQ(rep.events_invalid, 3);
  EXPECT_EQ(rep.events_applied, 1);
  EXPECT_EQ(c.state().n_slots(), 2) << "the corrupted join must not take a slot";
}

TEST(Controller, RejectsInvalidConfig) {
  const auto sc = two_ap_scenario({{10, 0}, {120, 0}}, {0, 1});
  ControllerConfig zero_k;
  zero_k.k = 0;
  EXPECT_THROW(AssociationController(sc, zero_k), std::invalid_argument);
  ControllerConfig negative_threshold;
  negative_threshold.degradation_threshold = -0.1;
  EXPECT_THROW(AssociationController(sc, negative_threshold), std::invalid_argument);
  ControllerConfig unknown_solver;
  unknown_solver.full_solver = "no-such-solver";
  EXPECT_THROW(AssociationController(sc, unknown_solver), std::invalid_argument);
}

TEST(Controller, PlansOnTheSeedScenariosRateTable) {
  // A scenario built with a longer-range table: projecting it with the
  // default 802.11a table would drop and re-rate most of its links.
  wlan::GeneratorParams p;
  p.n_aps = 30;
  p.n_users = 200;
  p.rate_table = wlan::RateTable::ieee80211a().scaled_range(1.5);
  util::Rng rng(41);
  const auto sc = wlan::generate_scenario(p, rng);
  AssociationController c(sc);
  EXPECT_TRUE(c.state().rate_table() == p.rate_table);
  const wlan::Scenario& planned = c.scenario();
  ASSERT_EQ(planned.n_users(), sc.n_users());
  EXPECT_EQ(planned.n_links(), sc.n_links());
  for (int a = 0; a < sc.n_aps(); ++a) {
    for (int u = 0; u < sc.n_users(); ++u) {
      ASSERT_EQ(planned.link_rate(a, u), sc.link_rate(a, u)) << "AP " << a << " user " << u;
    }
  }
}

TEST(Controller, SignalingCapRollsBackVoluntaryMoves) {
  // u0 starts on AP 0 (10 m, 54 Mbps), then walks to 140 m from AP 0 /
  // 10 m from AP 1. AP 0 still reaches it (12 Mbps), so moving to AP 1 is
  // a *voluntary* improvement — exactly what max_reassoc_per_epoch = 0
  // forbids.
  ControllerConfig capped;
  capped.max_reassoc_per_epoch = 0;
  AssociationController c(two_ap_scenario({{10, 0}}, {0}, {1.0}), capped);
  ASSERT_EQ(c.slot_ap()[0], 0);

  c.submit(Event::move(0, {140, 0}));
  const auto rep = c.drain();
  EXPECT_TRUE(rep.rolled_back);
  EXPECT_EQ(rep.voluntary_reassociations, 0);
  EXPECT_EQ(c.slot_ap()[0], 0) << "rollback keeps the still-valid association";
  EXPECT_EQ(c.telemetry().rollbacks.value(), 1u);

  // Without the cap the same epoch hands off to the closer AP.
  AssociationController free(two_ap_scenario({{10, 0}}, {0}, {1.0}));
  free.submit(Event::move(0, {140, 0}));
  const auto rep2 = free.drain();
  EXPECT_FALSE(rep2.rolled_back);
  EXPECT_EQ(free.slot_ap()[0], 1);
  EXPECT_EQ(rep2.handoffs, 1);
  EXPECT_EQ(rep2.voluntary_reassociations, 1);
}

TEST(Controller, ForcedRepairSurvivesTheCap) {
  // The cap limits *voluntary* churn only: a user whose AP went out of range
  // must still be re-placed.
  ControllerConfig capped;
  capped.max_reassoc_per_epoch = 0;
  AssociationController c(two_ap_scenario({{10, 0}}, {0}, {1.0}), capped);
  c.submit(Event::move(0, {260, 0}));  // 260 m from AP 0: forced off it
  const auto rep = c.drain();
  EXPECT_EQ(rep.forced_reassociations, 1);
  EXPECT_EQ(c.slot_ap()[0], 1);
}

TEST(Controller, AdmissionControlRejectsOverBudgetJoins) {
  // One AP. Session 0 streams 10 Mbps; u0 at 100 m anchors the group at
  // 18 Mbps (load 0.56 of a 0.6 budget). A newcomer at 190 m would drag the
  // group to 6 Mbps (load 1.67) — no AP can absorb it, so the join is refused.
  const auto sc = wlan::Scenario::from_geometry(
      {{0, 0}}, {{100, 0}}, {0}, {10.0}, wlan::RateTable::ieee80211a(),
      /*load_budget=*/0.6);
  AssociationController c(sc);
  c.submit(Event::join(1, {190, 0}, 0));
  const auto rep = c.drain();
  EXPECT_EQ(rep.rejected_joins, 1);
  EXPECT_EQ(c.telemetry().joins_rejected.value(), 1u);
  EXPECT_TRUE(c.state().slot(1).present);
  EXPECT_FALSE(c.state().slot(1).subscribed) << "refused users stay unsubscribed";

  // A newcomer inside the current bottleneck's rate step adds zero marginal
  // load and is admitted.
  c.submit(Event::join(2, {50, 0}, 0));
  const auto rep2 = c.drain();
  EXPECT_EQ(rep2.rejected_joins, 0);
  EXPECT_EQ(c.telemetry().joins_admitted.value(), 1u);
  EXPECT_TRUE(c.state().slot(2).wants_service());
}

TEST(Controller, AdmissionHookOverridesBuiltInGate) {
  ControllerConfig cfg;
  cfg.admission_hook = [](const JoinRequest& req, const std::vector<double>&,
                          const NetworkState&) { return req.session == 0; };
  AssociationController c(two_ap_scenario({{10, 0}, {120, 0}}, {0, 1}), cfg);
  c.submit({Event::join(2, {20, 0}, 0), Event::join(3, {30, 0}, 1)});
  const auto rep = c.drain();
  EXPECT_EQ(rep.rejected_joins, 1);
  EXPECT_TRUE(c.state().slot(2).subscribed);
  EXPECT_FALSE(c.state().slot(3).subscribed);
}

// Property: replaying a full churn trace with a per-epoch baseline refresh
// keeps the controller within the degradation threshold of a cold full
// re-solve at every epoch — the invariant the fallback ladder exists to
// enforce.
TEST(Controller, ReplayStaysWithinDegradationThresholdOfColdSolve) {
  wlan::GeneratorParams p;
  p.n_aps = 25;
  p.n_users = 80;
  p.n_sessions = 4;
  p.area_side_m = 500.0;
  util::Rng rng(11);
  const auto sc = wlan::generate_scenario(p, rng);

  ControllerConfig cfg;
  cfg.full_refresh_epochs = 1;  // fresh baseline every epoch
  cfg.seed = 12;
  AssociationController c(sc, cfg);

  TraceParams tp;
  tp.epochs = 8;
  tp.move_fraction = 0.15;
  tp.walk_sigma_m = 25.0;
  tp.zap_fraction = 0.05;
  tp.leave_fraction = 0.02;
  tp.join_fraction = 0.02;
  util::Rng trace_rng(13);
  const auto trace = generate_churn_trace(c.state(), tp, trace_rng);

  for (const auto& batch : trace.epochs) {
    c.submit(batch);
    const auto rep = c.drain();
    ASSERT_GT(rep.baseline_load, 0.0);
    EXPECT_LE(rep.total_load,
              rep.baseline_load * (1.0 + cfg.degradation_threshold) + 1e-9)
        << "epoch " << rep.epoch << " drifted past the degradation threshold";
  }
  EXPECT_EQ(c.epochs(), tp.epochs);
}

// The MLA-C full solve is assoc::centralized_mla on the epoch's
// scenario and nothing else: the initial association is the cold MLA-C one,
// and every baseline equals a cold MLA-C on the committed scenario bit for
// bit — whatever churn came before, at any thread count.
TEST(Controller, FullSolveIsCentralizedMlaOnTheEpochScenario) {
  wlan::GeneratorParams p;
  p.n_aps = 60;
  p.n_users = 300;
  p.n_sessions = 4;
  util::Rng rng(7);
  const auto sc = wlan::generate_scenario(p, rng);
  const auto cold_seed = assoc::centralized_mla(sc);

  for (const int threads : {1, 4}) {
    ControllerConfig cfg;
    cfg.full_refresh_epochs = 1;  // a full solve every epoch
    cfg.threads = threads;
    AssociationController c(sc, cfg);
    EXPECT_EQ(c.slot_ap(), cold_seed.assoc.user_ap) << "threads " << threads;

    TraceParams tp;
    tp.epochs = 30;
    tp.move_fraction = 0.15;
    tp.walk_sigma_m = 25.0;
    tp.zap_fraction = 0.05;
    tp.leave_fraction = 0.02;
    tp.join_fraction = 0.02;
    util::Rng trace_rng(8);
    const auto trace = generate_churn_trace(c.state(), tp, trace_rng);
    ASSERT_EQ(trace.n_epochs(), tp.epochs);

    for (const auto& batch : trace.epochs) {
      c.submit(batch);
      const auto rep = c.drain();
      const auto cold = assoc::centralized_mla(c.scenario());
      EXPECT_EQ(c.baseline_load(), cold.loads.total_load)
          << "threads " << threads << " epoch " << rep.epoch;
    }
  }
}

}  // namespace
}  // namespace wmcast::ctrl
