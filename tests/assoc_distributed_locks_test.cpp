#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::assoc {
namespace {

DistributedParams locked_params() {
  DistributedParams p;
  p.mode = UpdateMode::kLocked;
  return p;
}

TEST(Locks, Fig4ConvergesWhereSimultaneousOscillates) {
  const auto sc = test::fig4_scenario();
  DistributedParams p;
  p.objective = Objective::kTotalLoad;
  p.order = util::iota_permutation(4);
  p.initial = wlan::Association{{0, 0, 1, 1}};

  // Plain simultaneous: oscillates (paper Fig. 4).
  {
    p.mode = UpdateMode::kSimultaneous;
    util::Rng rng(1);
    EXPECT_FALSE(distributed_associate(sc, rng, p).converged);
  }
  // Lock-coordinated: converges, reaching the 9/20 fixed point.
  {
    p.mode = UpdateMode::kLocked;
    util::Rng rng(1);
    LockStats stats;
    const auto sol = distributed_associate(sc, rng, p, &stats);
    EXPECT_TRUE(sol.converged);
    EXPECT_NEAR(sol.loads.total_load, 9.0 / 20.0, 1e-12);
    // u2 and u3 contend for the shared APs: someone must have deferred.
    EXPECT_GT(stats.deferrals, 0);
    EXPECT_GT(stats.lock_grants, 0);
  }
}

TEST(Locks, ConvergesOnRandomScenarios) {
  util::Rng rng(107);
  for (int trial = 0; trial < 5; ++trial) {
    wlan::GeneratorParams gp;
    gp.n_aps = 15;
    gp.n_users = 50;
    gp.n_sessions = 3;
    util::Rng sub = rng.fork();
    const auto sc = wlan::generate_scenario(gp, sub);
    util::Rng run_rng = rng.fork();
    const auto sol = distributed_associate(sc, run_rng, locked_params());
    EXPECT_TRUE(sol.converged);
    EXPECT_TRUE(sol.loads.within_budget());
    EXPECT_EQ(sol.loads.satisfied_users, sc.n_coverable_users());
  }
}

TEST(Locks, QualityComparableToSequentialEngine) {
  util::Rng gen(109);
  wlan::GeneratorParams gp;
  gp.n_aps = 20;
  gp.n_users = 60;
  const auto sc = wlan::generate_scenario(gp, gen);
  DistributedParams p = locked_params();
  p.order = util::iota_permutation(sc.n_users());
  util::Rng r1(1);
  util::Rng r2(1);
  const auto locked = distributed_associate(sc, r1, p);
  p.mode = UpdateMode::kSequential;
  const auto sequential = distributed_associate(sc, r2, p);
  ASSERT_TRUE(locked.converged);
  ASSERT_TRUE(sequential.converged);
  EXPECT_EQ(locked.loads.satisfied_users, sequential.loads.satisfied_users);
  EXPECT_NEAR(locked.loads.total_load, sequential.loads.total_load,
              0.3 * sequential.loads.total_load + 1e-9);
}

TEST(Locks, LoadVectorObjectiveSupported) {
  const auto sc = test::fig1_scenario(1.0);
  DistributedParams p = locked_params();
  p.objective = Objective::kLoadVector;
  p.order = util::iota_permutation(5);
  util::Rng rng(1);
  const auto sol = distributed_associate(sc, rng, p);
  EXPECT_TRUE(sol.converged);
  EXPECT_EQ(sol.algorithm, "BLA-D-lock");
  EXPECT_EQ(sol.loads.satisfied_users, 5);
}

TEST(Locks, RejectsBadOrder) {
  const auto sc = test::fig1_scenario(1.0);
  DistributedParams p = locked_params();
  p.order = {0};
  util::Rng rng(1);
  EXPECT_THROW(distributed_associate(sc, rng, p), std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::assoc
