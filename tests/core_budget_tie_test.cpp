// Regression tests for the shared budget comparator (util/fp.hpp): a budget
// exactly equal to a sum of set costs must be feasible on every platform,
// even when floating-point accumulation makes the sum land a hair above the
// budget literal. Before the comparator was unified, core/solve and
// setcover/reference used an absolute 1e-12 tolerance, which misclassified
// ties at large cost magnitudes (sum - budget ~ 1e-10 at magnitude 6e5).
#include <gtest/gtest.h>

#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/setcover/reference.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/util/fp.hpp"

namespace wmcast {
namespace {

// Three disjoint sets in one group whose decimal costs sum to exactly the
// budget, but whose FP sum exceeds the budget literal by ~1.16e-10.
constexpr double kC1 = 100000.1;
constexpr double kC2 = 200000.2;
constexpr double kC3 = 300000.3;
constexpr double kBudget = 600000.6;

core::CoverageEngine tie_engine() {
  core::CoverageEngine eng;
  eng.reset(6, 1);
  const std::vector<int32_t> m1{0, 1}, m2{2, 3}, m3{4, 5};
  eng.add_set(0, 0, 1.0, kC1, m1);
  eng.add_set(0, 0, 1.0, kC2, m2);
  eng.add_set(0, 0, 1.0, kC3, m3);
  eng.finish();
  return eng;
}

setcover::SetSystem tie_system() {
  std::vector<setcover::CandidateSet> sets(3);
  const double costs[3] = {kC1, kC2, kC3};
  for (int j = 0; j < 3; ++j) {
    sets[static_cast<size_t>(j)].members = util::DynBitset(6);
    sets[static_cast<size_t>(j)].members.set(2 * j);
    sets[static_cast<size_t>(j)].members.set(2 * j + 1);
    sets[static_cast<size_t>(j)].cost = costs[j];
    sets[static_cast<size_t>(j)].group = 0;
    sets[static_cast<size_t>(j)].ap = 0;
  }
  return setcover::SetSystem(6, 1, std::move(sets));
}

TEST(BudgetTie, ComparatorAcceptsExactSumsAtAnyMagnitude) {
  // Exact equality is always feasible.
  EXPECT_TRUE(util::fits_budget(0.9, 0.9));
  EXPECT_TRUE(util::fits_budget(kBudget, kBudget));
  // The accumulated FP sum sits ~1.16e-10 above the budget literal: beyond an
  // absolute 1e-12, inside the relative tolerance.
  const double sum = kC1 + kC2 + kC3;
  ASSERT_GT(sum, kBudget + 1e-12);
  EXPECT_TRUE(util::fits_budget(sum, kBudget));
  // Genuine violations still register, at small and large magnitudes.
  EXPECT_TRUE(util::exceeds_budget(0.9 + 1e-6, 0.9));
  EXPECT_TRUE(util::exceeds_budget(kBudget * (1.0 + 1e-6), kBudget));
  // Exhaustion is the mirror image: at the budget means exhausted.
  EXPECT_TRUE(util::budget_exhausted(kBudget, kBudget));
  EXPECT_FALSE(util::budget_exhausted(kBudget / 2, kBudget));
}

TEST(BudgetTie, McgBudgetEqualToLoadSumIsFeasible) {
  const auto eng = tie_engine();
  core::SolveWorkspace ws;
  const std::vector<double> budgets{kBudget};
  const auto res = core::mcg_cover(eng, ws, budgets);
  ASSERT_EQ(res.h.size(), 3u);
  for (const char v : res.violator) {
    EXPECT_EQ(v, 0) << "a budget exactly equal to the load sum must not flag a violator";
  }
  EXPECT_EQ(res.chosen.size(), 3u);  // all of H1; nothing split into H2
  EXPECT_EQ(res.covered.count(), 6);
}

TEST(BudgetTie, ReferenceMcgAgreesAtTheTiePoint) {
  const auto sys = tie_system();
  const std::vector<double> budgets{kBudget};
  const auto ref = setcover::mcg_greedy_reference(sys, budgets);
  ASSERT_EQ(ref.h.size(), 3u);
  for (const char v : ref.violator) EXPECT_EQ(v, 0);
  EXPECT_EQ(ref.covered.count(), 6);

  // Engine and reference must agree pick-for-pick at the tie.
  const auto eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::mcg_cover(eng, ws, budgets);
  EXPECT_EQ(res.h, ref.h);
  EXPECT_EQ(res.chosen, ref.chosen);
}

TEST(BudgetTie, ScgFeasibleAtBudgetCapEqualToTightSum) {
  const auto eng = tie_engine();
  core::SolveWorkspace ws;
  core::ScgParams params;
  params.budget_cap = kBudget;
  const auto res = core::scg_cover(eng, ws, params);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.covered.count(), 6);
  EXPECT_TRUE(util::fits_budget(res.max_group_cost, kBudget));
}

TEST(BudgetTie, MinFeasibleBudgetIsItselfFeasible) {
  // An element whose only set costs exactly C: SCG capped at C (the value
  // min_feasible_budget returns) must cover it.
  core::CoverageEngine eng;
  eng.reset(1, 1);
  const std::vector<int32_t> m{0};
  eng.add_set(0, 0, 1.0, kC3, m);
  eng.finish();
  EXPECT_DOUBLE_EQ(eng.min_feasible_budget(), kC3);

  core::SolveWorkspace ws;
  core::ScgParams params;
  params.budget_cap = eng.min_feasible_budget();
  const auto res = core::scg_cover(eng, ws, params);
  EXPECT_TRUE(res.feasible);
}

}  // namespace
}  // namespace wmcast
