#include "wmcast/core/solve.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::setcover {
namespace {

TEST(ScgSolve, PapersBlaWalkthroughOutcome) {
  // §5.1 example: on Fig. 1 with 1 Mbps streams, Centralized BLA selects
  // (a1, s2, rate 4) and (a1, s1, rate 3): all users on a1, max group cost
  // 1/4 + 1/3 = 7/12. (The true optimum is 1/2; the greedy cannot see it.)
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const core::ScgResult res = core::scg_cover(eng, ws);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.covered.count(), 5);
  EXPECT_NEAR(res.max_group_cost, 7.0 / 12.0, 1e-9);
  // Both chosen transmissions are from a1.
  for (const int j : res.chosen) EXPECT_EQ(sys.set(j).ap, 0);
}

TEST(ScgSolve, CoversEverythingOnRandomScenarios) {
  util::Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    wlan::GeneratorParams p;
    p.n_aps = 25;
    p.n_users = 60;
    p.n_sessions = 3;
    util::Rng sub = rng.fork();
    const auto sc = wlan::generate_scenario(p, sub);
    const SetSystem sys = build_set_system(sc);
    const core::CoverageEngine eng = to_engine(sys);
    core::SolveWorkspace ws;
    const core::ScgResult res = core::scg_cover(eng, ws);
    EXPECT_TRUE(res.feasible);
    EXPECT_EQ(res.covered.count(), sc.n_coverable_users());
    // The reported per-group costs match the chosen sets.
    std::vector<double> group_cost(static_cast<size_t>(sys.n_groups()), 0.0);
    for (const int j : res.chosen) {
      group_cost[static_cast<size_t>(sys.set(j).group)] += sys.set(j).cost;
    }
    double max_cost = 0.0;
    for (int g = 0; g < sys.n_groups(); ++g) {
      EXPECT_NEAR(group_cost[static_cast<size_t>(g)], res.group_cost[static_cast<size_t>(g)], 1e-9);
      max_cost = std::max(max_cost, group_cost[static_cast<size_t>(g)]);
    }
    EXPECT_NEAR(res.max_group_cost, max_cost, 1e-9);
  }
}

TEST(ScgSolve, TheoremFourPassBound) {
  // The winning run must finish within log_{8/7}(n)+1 passes (plus our
  // documented slack of 8).
  util::Rng rng(23);
  wlan::GeneratorParams p;
  p.n_aps = 30;
  p.n_users = 80;
  const auto sc = wlan::generate_scenario(p, rng);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const core::ScgResult res = core::scg_cover(eng, ws);
  ASSERT_TRUE(res.feasible);
  const int bound =
      static_cast<int>(std::ceil(std::log(80.0) / std::log(8.0 / 7.0))) + 8;
  EXPECT_LE(res.passes, bound);
}

TEST(ScgSolve, SingleApInstance) {
  // Everything must go through the one AP; the max group cost equals the
  // total cost of a cover.
  const std::vector<std::vector<double>> link = {{2, 4}};
  const auto sc = wlan::Scenario::from_link_rates(link, {0, 0}, {1.0}, 1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const core::ScgResult res = core::scg_cover(eng, ws);
  ASSERT_TRUE(res.feasible);
  // One transmission of the session at rate 2 covers both users: cost 1/2.
  EXPECT_NEAR(res.max_group_cost, 0.5, 1e-9);
}

TEST(ScgSolve, BetterBudgetGuessesNeverHurtTheMax) {
  // scg_cover returns the best over its B* candidates, so the result can only
  // be at most the single-shot greedy at B* = 1.
  const auto sc = test::fig1_scenario(2.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const core::ScgResult best = core::scg_cover(eng, ws);
  core::ScgParams one_shot;
  one_shot.grid_points = 2;  // just the bounds
  one_shot.refine_steps = 0;
  const core::ScgResult coarse = core::scg_cover(eng, ws, one_shot);
  if (best.feasible && coarse.feasible) {
    EXPECT_LE(best.max_group_cost, coarse.max_group_cost + 1e-9);
  }
}

TEST(ScgSolve, RejectsBadParams) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  core::ScgParams p;
  p.budget_cap = 0.0;
  EXPECT_THROW(core::scg_cover(eng, ws, p), std::invalid_argument);
  p = core::ScgParams{};
  p.grid_points = 1;
  EXPECT_THROW(core::scg_cover(eng, ws, p), std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::setcover
