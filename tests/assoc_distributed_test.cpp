#include "wmcast/assoc/distributed.hpp"

#include <gtest/gtest.h>

#include "pinned_starts.hpp"
#include "test_fixtures.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::assoc {
namespace {

std::vector<int> natural_order(int n) { return util::iota_permutation(n); }

TEST(DistributedMnu, PapersWalkthroughServesFour) {
  // §4.2 example: order u1..u5 -> u1 on a1, u2 rejected, u3 joins a1,
  // u4 and u5 join a2: 4 of 5 users served.
  const auto sc = test::fig1_scenario(3.0);
  util::Rng rng(1);
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  p.order = natural_order(5);
  const Solution sol = distributed_associate(sc, rng, p);
  EXPECT_EQ(sol.assoc.ap_of(0), 0);
  EXPECT_EQ(sol.assoc.ap_of(1), wlan::kNoAp);
  EXPECT_EQ(sol.assoc.ap_of(2), 0);
  EXPECT_EQ(sol.assoc.ap_of(3), 1);
  EXPECT_EQ(sol.assoc.ap_of(4), 1);
  EXPECT_EQ(sol.loads.satisfied_users, 4);
  EXPECT_TRUE(sol.converged);
  EXPECT_TRUE(sol.loads.within_budget());
}

TEST(DistributedBla, PapersWalkthroughReachesOptimum) {
  // §5.2 example: order u1..u5 -> u1,u2,u3 on a1; u4,u5 on a2; loads
  // (1/2, 1/3) — the optimal BLA solution.
  const auto sc = test::fig1_scenario(1.0);
  util::Rng rng(1);
  DistributedParams p;
  p.objective = Objective::kLoadVector;
  p.order = natural_order(5);
  const Solution sol = distributed_associate(sc, rng, p);
  EXPECT_EQ(sol.assoc.ap_of(0), 0);
  EXPECT_EQ(sol.assoc.ap_of(1), 0);
  EXPECT_EQ(sol.assoc.ap_of(2), 0);
  EXPECT_EQ(sol.assoc.ap_of(3), 1);
  EXPECT_EQ(sol.assoc.ap_of(4), 1);
  EXPECT_NEAR(sol.loads.max_load, 0.5, 1e-12);
  EXPECT_NEAR(sol.loads.ap_load[1], 1.0 / 3.0, 1e-12);
  EXPECT_TRUE(sol.converged);
}

TEST(DistributedMla, PapersWalkthroughAllOnA1) {
  // §6.2 example: all users end on a1, total load 7/12 (optimal).
  const auto sc = test::fig1_scenario(1.0);
  util::Rng rng(1);
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  p.order = natural_order(5);
  const Solution sol = distributed_associate(sc, rng, p);
  for (int u = 0; u < 5; ++u) EXPECT_EQ(sol.assoc.ap_of(u), 0);
  EXPECT_NEAR(sol.loads.total_load, 7.0 / 12.0, 1e-12);
}

TEST(DistributedFig4, SequentialConverges) {
  // Lemma 1: one-at-a-time decisions converge. From the paper's starting
  // point (u1,u2 on a1; u3,u4 on a2), u2 moves to a2 and then nobody
  // improves: total load drops from 1/2 to 9/20 and stays there.
  const auto sc = test::fig4_scenario();
  util::Rng rng(1);
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  p.mode = UpdateMode::kSequential;
  p.order = natural_order(4);
  p.initial = wlan::Association{{0, 0, 1, 1}};
  const Solution sol = distributed_associate(sc, rng, p);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.loads.satisfied_users, 4);
  EXPECT_NEAR(sol.loads.total_load, 9.0 / 20.0, 1e-12);
}

TEST(DistributedFig4, SimultaneousOscillates) {
  // The paper's negative example: from u1,u2 -> a1 and u3,u4 -> a2, the
  // synchronized decisions of u2 and u3 swap them forever. Our engine
  // detects the 2-cycle and reports non-convergence.
  const auto sc = test::fig4_scenario();
  util::Rng rng(1);
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  p.mode = UpdateMode::kSimultaneous;
  p.order = natural_order(4);
  p.initial = wlan::Association{{0, 0, 1, 1}};
  const Solution sol = distributed_associate(sc, rng, p);
  EXPECT_FALSE(sol.converged);
  // The oscillation keeps the total load pinned at 1/2, never reaching the
  // 9/20 a single move would give.
  EXPECT_NEAR(sol.loads.total_load, 0.5, 1e-12);
}

TEST(DistributedFig4, SimultaneousFromEmptyStartHappensToConverge) {
  // Non-convergence is start-state dependent: from all-unassociated the same
  // synchronized protocol settles (everyone piles onto a1 in round one and
  // nobody can improve).
  const auto sc = test::fig4_scenario();
  util::Rng rng(1);
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  p.mode = UpdateMode::kSimultaneous;
  p.order = natural_order(4);
  const Solution sol = distributed_associate(sc, rng, p);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.loads.satisfied_users, 4);
}

TEST(Distributed, SequentialAlwaysConvergesOnRandomScenarios) {
  // Lemma 1/2 as a property test across both objectives.
  util::Rng rng(53);
  for (const auto objective : {Objective::kTotalLoad, Objective::kLoadVector}) {
    for (int trial = 0; trial < 6; ++trial) {
      wlan::GeneratorParams gp;
      gp.n_aps = 20;
      gp.n_users = 60;
      gp.n_sessions = 4;
      util::Rng sub = rng.fork();
      const auto sc = wlan::generate_scenario(gp, sub);
      DistributedParams p;
      p.objective = objective;
      util::Rng run_rng = rng.fork();
      const Solution sol = distributed_associate(sc, run_rng, p);
      EXPECT_TRUE(sol.converged);
      EXPECT_TRUE(sol.loads.within_budget());
      EXPECT_EQ(sol.loads.satisfied_users, sc.n_coverable_users());
      EXPECT_LT(sol.rounds, 200);
    }
  }
}

TEST(Distributed, WrapperNamesAndObjectives) {
  const auto sc = test::fig1_scenario(1.0);
  util::Rng rng(1);
  EXPECT_EQ(distributed_mnu(sc, rng).algorithm, "MNU-D");
  EXPECT_EQ(distributed_mla(sc, rng).algorithm, "MLA-D");
  EXPECT_EQ(distributed_bla(sc, rng).algorithm, "BLA-D");
}

TEST(Distributed, RejectsBadOrder) {
  const auto sc = test::fig1_scenario(1.0);
  util::Rng rng(1);
  DistributedParams p;
  p.order = {0, 1};  // wrong size
  EXPECT_THROW(distributed_associate(sc, rng, p), std::invalid_argument);
}

TEST(Distributed, TotalLoadNeverIncreasesAcrossRounds) {
  // The convergence argument: each sequential move strictly decreases the
  // total network load (after the initial joins). Check the endpoint is no
  // worse than the state after round 1 by rerunning with max_rounds = 1.
  util::Rng gen(59);
  wlan::GeneratorParams gp;
  gp.n_aps = 15;
  gp.n_users = 50;
  const auto sc = wlan::generate_scenario(gp, gen);
  DistributedParams one;
  one.max_rounds = 1;
  one.order = natural_order(sc.n_users());
  DistributedParams full;
  full.order = natural_order(sc.n_users());
  util::Rng r1(1);
  util::Rng r2(1);
  const Solution after1 = distributed_associate(sc, r1, one);
  const Solution fixed = distributed_associate(sc, r2, full);
  EXPECT_LE(fixed.loads.total_load, after1.loads.total_load + 1e-9);
}

TEST(DistributedRounds, DecisionsArePinned) {
  // The round engine's decisions are part of the contract: the digest pins
  // every run's association, rounds, convergence and label, the lock mode's
  // grants and deferrals, and the rng's next draw, so a change to the order
  // shuffle, the decision pass or the lock arbitration must reproduce them
  // exactly. Carried starts are over budget, so the rounds evict as well as
  // join. The first 20 networks and the round cap keep the test short: from an
  // empty start the lock mode grants about one mover a round in these dense
  // networks. The cap pins the capped exit too.
  const auto starts = test::over_budget_starts(20);
  int lock_converged = 0;
  int lock_capped = 0;
  int64_t deferrals = 0;
  test::Fnv1a h;
  for (size_t i = 0; i < starts.size(); ++i) {
    const auto& s = starts[i];
    for (const auto mode :
         {UpdateMode::kSequential, UpdateMode::kSimultaneous, UpdateMode::kLocked}) {
      for (const auto obj : {Objective::kTotalLoad, Objective::kLoadVector}) {
        for (const bool carried : {false, true}) {
          DistributedParams p;
          p.objective = obj;
          p.mode = mode;
          p.max_rounds = 12;
          if (carried) p.initial = s.start;
          util::Rng rng(9100 + i);
          LockStats ls;
          const Solution sol = distributed_associate(s.sc, rng, p, &ls);
          h.add(sol.assoc.user_ap);
          h.add(sol.rounds);
          h.add(sol.converged);
          h.add(sol.algorithm);
          if (mode == UpdateMode::kLocked) {
            h.add(static_cast<uint64_t>(ls.lock_grants));
            h.add(static_cast<uint64_t>(ls.deferrals));
            lock_converged += sol.converged;
            lock_capped += !sol.converged;
            deferrals += ls.deferrals;
          }
          h.add(rng.next_u64());
        }
      }
    }
  }
  ASSERT_GT(lock_converged, 0);
  ASSERT_GT(lock_capped, 0);
  ASSERT_GT(deferrals, 0) << "no lock conflicts; the arbitration is not exercised";
  EXPECT_EQ(h.value(), 0x3de66541bc2d0f23ull) << std::hex << "0x" << h.value();
}

}  // namespace
}  // namespace wmcast::assoc
