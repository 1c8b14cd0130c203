// Direct unit tests for mcg_augment (the budget-respecting re-addition pass
// behind Centralized MNU's default refinement).
#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/reduction.hpp"

namespace wmcast::setcover {
namespace {

TEST(McgAugment, RecoversCoverageAfterTheSplit) {
  // Fig. 1 MNU walkthrough: after H1 = {(a1,s2,4)}, the augmentation can
  // still afford (a2,s1,5) and cover u3.
  const auto sc = test::fig1_scenario(3.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  std::vector<double> budgets(2, 1.0);
  const auto mcg = core::mcg_cover(eng, ws, budgets);
  ASSERT_EQ(mcg.covered.count(), 3);

  std::vector<double> group_cost(2, 0.0);
  for (const int j : mcg.chosen) {
    group_cost[static_cast<size_t>(sys.set(j).group)] += sys.set(j).cost;
  }
  util::DynBitset covered = mcg.covered;
  const auto added = core::mcg_augment(eng, ws, budgets, group_cost, covered);
  ASSERT_EQ(added.size(), 1u);
  EXPECT_EQ(sys.set(added[0]).ap, 1);
  EXPECT_EQ(sys.set(added[0]).session, 0);
  EXPECT_EQ(covered.count(), 4);
  // Budgets still respected.
  EXPECT_LE(group_cost[0], 1.0 + 1e-9);
  EXPECT_LE(group_cost[1], 1.0 + 1e-9);
}

TEST(McgAugment, NoBudgetNoAdditions) {
  const auto sc = test::fig1_scenario(3.0);
  const SetSystem sys = build_set_system(sc);
  std::vector<double> budgets(2, 1.0);
  std::vector<double> group_cost = {1.0, 1.0};  // both groups exhausted
  util::DynBitset covered(sys.n_elements());
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto added = core::mcg_augment(eng, ws, budgets, group_cost, covered);
  EXPECT_TRUE(added.empty());
  EXPECT_EQ(covered.count(), 0);
}

TEST(McgAugment, FromScratchActsLikeBudgetedGreedy) {
  // With empty prior state, augmentation is a pure budget-respecting greedy;
  // on Fig. 1 at budget 1 it covers 4 users (never violating a budget).
  const auto sc = test::fig1_scenario(3.0);
  const SetSystem sys = build_set_system(sc);
  std::vector<double> budgets(2, 1.0);
  std::vector<double> group_cost(2, 0.0);
  util::DynBitset covered(sys.n_elements());
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto added = core::mcg_augment(eng, ws, budgets, group_cost, covered);
  EXPECT_GE(covered.count(), 3);
  EXPECT_LE(group_cost[0], 1.0 + 1e-9);
  EXPECT_LE(group_cost[1], 1.0 + 1e-9);
  EXPECT_FALSE(added.empty());
}

TEST(McgAugment, RejectsMismatchedVectors) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  std::vector<double> budgets(1, 1.0);  // wrong size
  std::vector<double> group_cost(2, 0.0);
  util::DynBitset covered(sys.n_elements());
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  EXPECT_THROW(core::mcg_augment(eng, ws, budgets, group_cost, covered),
               std::invalid_argument);
  budgets.assign(2, 1.0);
  group_cost.assign(1, 0.0);  // wrong size
  EXPECT_THROW(core::mcg_augment(eng, ws, budgets, group_cost, covered),
               std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::setcover
