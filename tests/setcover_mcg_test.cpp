#include "wmcast/core/solve.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"

namespace wmcast::setcover {
namespace {

TEST(McgGreedy, PapersMnuWalkthrough) {
  // §4.1 example: on Fig. 1 with 3 Mbps streams and budget 1, the greedy
  // first selects S4 = (a1, s2, rate 4) [ratio 4], then S2 = (a1, s1, rate 3)
  // [ratio 2], which violates a1's budget. H1 = {S4} covers 3 users,
  // H2 = {S2} covers 2, so the output is H1: u2, u4, u5 on a1.
  const auto sc = test::fig1_scenario(3.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> budgets(2, 1.0);
  const core::McgResult res = core::mcg_cover(eng, ws, budgets);

  ASSERT_EQ(res.h.size(), 2u);
  EXPECT_EQ(sys.set(res.h[0]).ap, 0);
  EXPECT_EQ(sys.set(res.h[0]).session, 1);
  EXPECT_DOUBLE_EQ(sys.set(res.h[0]).tx_rate, 4.0);
  EXPECT_FALSE(res.violator[0]);
  EXPECT_EQ(sys.set(res.h[1]).ap, 0);
  EXPECT_EQ(sys.set(res.h[1]).session, 0);
  EXPECT_DOUBLE_EQ(sys.set(res.h[1]).tx_rate, 3.0);
  EXPECT_TRUE(res.violator[1]);

  EXPECT_EQ(res.h1.size(), 1u);
  EXPECT_EQ(res.h2.size(), 1u);
  EXPECT_EQ(res.chosen, res.h1);
  EXPECT_EQ(res.covered.to_indices(), (std::vector<int>{1, 3, 4}));  // u2, u4, u5
  util::DynBitset covered_h(sys.n_elements());
  for (const int j : res.h) covered_h.or_assign(sys.set(j).members);
  EXPECT_EQ(covered_h.count(), 5);  // the full H covered everyone
}

TEST(McgGreedy, RespectsBudgetsAfterSplit) {
  util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sc = test::fig1_scenario(0.5 + rng.next_double() * 3.0);
    const SetSystem sys = build_set_system(sc);
    const double budget = 0.3 + rng.next_double() * 0.7;
    const core::CoverageEngine eng = to_engine(sys);
    core::SolveWorkspace ws;
    const std::vector<double> budgets(2, budget);
    const core::McgResult res = core::mcg_cover(eng, ws, budgets);
    std::vector<double> group_cost(static_cast<size_t>(sys.n_groups()), 0.0);
    for (const int j : res.chosen) {
      group_cost[static_cast<size_t>(sys.set(j).group)] += sys.set(j).cost;
    }
    for (const double c : group_cost) EXPECT_LE(c, budget + 1e-9);
  }
}

TEST(McgGreedy, ChoosesBetterHalf) {
  // Construct a system where the violator set covers more than the rest:
  // group 0 budget 1; set A {0} cost 0.9 (picked first: ratio 1.11 vs 1.0 of
  // B), then set B {1,2,3,4} cost 4.0 would violate. Make B's ratio higher so
  // it is picked first instead; then A violates.
  std::vector<CandidateSet> sets;
  {
    CandidateSet a;
    a.members = util::DynBitset(5);
    a.members.set(0);
    a.cost = 0.9;
    a.group = a.ap = 0;
    CandidateSet b;
    b.members = util::DynBitset(5);
    for (int e = 1; e < 5; ++e) b.members.set(e);
    b.cost = 1.0;
    b.group = b.ap = 0;
    sets = {a, b};
  }
  const SetSystem sys(5, 1, std::move(sets));
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> budgets(1, 1.0);
  const core::McgResult res = core::mcg_cover(eng, ws, budgets);
  // B (ratio 4) first, fits exactly; A then violates (1.9 > 1). H1 = {B}
  // covers 4 > H2 = {A} covers 1.
  EXPECT_EQ(res.covered.count(), 4);
  ASSERT_EQ(res.chosen.size(), 1u);
  EXPECT_EQ(sys.set(res.chosen[0]).members.count(), 4);
}

TEST(McgGreedy, SkipsSetsLargerThanTheirGroupBudget) {
  std::vector<CandidateSet> sets;
  CandidateSet big;
  big.members = util::DynBitset(3);
  big.members.set(0);
  big.members.set(1);
  big.members.set(2);
  big.cost = 2.0;  // exceeds the budget on its own
  big.group = big.ap = 0;
  CandidateSet small;
  small.members = util::DynBitset(3);
  small.members.set(0);
  small.cost = 0.5;
  small.group = small.ap = 0;
  sets = {big, small};
  const SetSystem sys(3, 1, std::move(sets));
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> budgets(1, 1.0);
  const core::McgResult res = core::mcg_cover(eng, ws, budgets);
  ASSERT_EQ(res.chosen.size(), 1u);
  EXPECT_DOUBLE_EQ(sys.set(res.chosen[0]).cost, 0.5);
  EXPECT_EQ(res.covered.count(), 1);
}

TEST(McgGreedy, RestrictToNarrowsTargets) {
  const auto sc = test::fig1_scenario(3.0);
  const SetSystem sys = build_set_system(sc);
  util::DynBitset only_u1(5);
  only_u1.set(0);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> budgets(2, 1.0);
  const core::McgResult res = core::mcg_cover(eng, ws, budgets, &only_u1);
  // Only (a1, s1, rate 3) covers u1; it fits the budget of 1 exactly.
  ASSERT_EQ(res.chosen.size(), 1u);
  EXPECT_DOUBLE_EQ(sys.set(res.chosen[0]).tx_rate, 3.0);
  EXPECT_EQ(res.covered.to_indices(), (std::vector<int>{0}));
}

TEST(McgGreedy, BudgetCountMismatchThrows) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> wrong(1, 1.0);
  EXPECT_THROW(core::mcg_cover(eng, ws, wrong), std::invalid_argument);
}

TEST(McgGreedy, ZeroBudgetSelectsNothing) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> budgets(2, 1e-15);
  const core::McgResult res = core::mcg_cover(eng, ws, budgets);
  EXPECT_TRUE(res.chosen.empty());
  EXPECT_EQ(res.covered.count(), 0);
}

}  // namespace
}  // namespace wmcast::setcover
