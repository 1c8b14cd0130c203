#include "wmcast/assoc/local_search.hpp"

#include <gtest/gtest.h>

#include "pinned_starts.hpp"
#include "test_fixtures.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/exact/exact_mla.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::assoc {
namespace {

TEST(LocalSearch, NeverWorsensTheObjective) {
  util::Rng rng(131);
  for (int trial = 0; trial < 6; ++trial) {
    wlan::GeneratorParams p;
    p.n_aps = 15;
    p.n_users = 50;
    util::Rng sub = rng.fork();
    const auto sc = wlan::generate_scenario(p, sub);
    util::Rng srng = rng.fork();
    const auto start = ssa_associate(sc, srng);

    LocalSearchParams lp;
    lp.objective = SearchObjective::kTotalLoad;
    const auto polished = local_search(sc, start.assoc, lp);
    EXPECT_LE(polished.loads.total_load, start.loads.total_load + 1e-9);
    EXPECT_GE(polished.loads.satisfied_users, start.loads.satisfied_users);
    EXPECT_TRUE(polished.converged);

    lp.objective = SearchObjective::kMaxLoad;
    const auto balanced = local_search(sc, start.assoc, lp);
    EXPECT_LE(balanced.loads.max_load, start.loads.max_load + 1e-9);
  }
}

TEST(LocalSearch, FindsTheFig1MlaOptimumFromSsa) {
  const auto sc = test::fig1_scenario(1.0);
  util::Rng rng(1);
  const auto ssa = ssa_associate(sc, rng);
  ASSERT_GT(ssa.loads.total_load, 7.0 / 12.0 + 1e-9);  // SSA is suboptimal here
  LocalSearchParams lp;
  lp.objective = SearchObjective::kTotalLoad;
  const auto polished = local_search(sc, ssa.assoc, lp);
  EXPECT_NEAR(polished.loads.total_load, 7.0 / 12.0, 1e-9);
}

TEST(LocalSearch, BlaOptimumIsAFixedPoint) {
  // The optimal BLA association (max load 1/2) is a local optimum: every
  // single-user move raises the max, so polish leaves it untouched.
  const auto sc = test::fig1_scenario(1.0);
  const wlan::Association opt{{0, 0, 0, 1, 1}};
  LocalSearchParams lp;
  lp.objective = SearchObjective::kMaxLoad;
  LocalSearchStats stats;
  const auto polished = local_search(sc, opt, lp, &stats);
  EXPECT_EQ(stats.moves, 0);
  EXPECT_NEAR(polished.loads.max_load, 0.5, 1e-12);
}

TEST(LocalSearch, MaxLoadPlateausAreRealLocalOptima) {
  // From the all-on-a1 state (max 7/12), no single move lowers the max —
  // reaching the 1/2 optimum needs a coordinated two-user move. Hill
  // climbing must terminate at 7/12 and never worsen it. (This is exactly
  // why the paper needs the SCG machinery rather than naive descent.)
  const auto sc = test::fig1_scenario(1.0);
  const auto bla = centralized_bla(sc);
  ASSERT_NEAR(bla.loads.max_load, 7.0 / 12.0, 1e-9);
  LocalSearchParams lp;
  lp.objective = SearchObjective::kMaxLoad;
  const auto polished = local_search(sc, bla.assoc, lp);
  EXPECT_LE(polished.loads.max_load, 7.0 / 12.0 + 1e-9);
  EXPECT_TRUE(polished.converged);
}

TEST(LocalSearch, ServesMoreUsersUnderTightBudget) {
  const auto sc = test::fig1_scenario(3.0);
  // Start from the paper's bad SSA outcome: u1 on a1, u3 on a2, rest unserved.
  // Both objectives rank served users first, so the MLA key serves more.
  const wlan::Association bad{{0, wlan::kNoAp, 1, wlan::kNoAp, wlan::kNoAp}};
  LocalSearchParams lp;
  lp.objective = SearchObjective::kTotalLoad;
  const auto polished = local_search(sc, bad, lp);
  // The optimum serves 4; local search must at least improve on 2.
  EXPECT_GE(polished.loads.satisfied_users, 3);
  EXPECT_TRUE(polished.loads.within_budget());
}

TEST(LocalSearch, RepairsInfeasibleStart) {
  const auto sc = test::fig1_scenario(3.0);
  // u1 and u2 both on a1: load 1.5 > budget 1.
  const wlan::Association bad{{0, 0, wlan::kNoAp, wlan::kNoAp, wlan::kNoAp}};
  ASSERT_FALSE(wlan::compute_loads(sc, bad).within_budget());
  const auto polished = local_search(sc, bad, {});
  EXPECT_TRUE(polished.loads.within_budget());
}

TEST(LocalSearch, MatchesExactOnSmallInstances) {
  // Polishing the greedy MLA association gets within a few percent of the
  // exact optimum on small instances (and never below it).
  util::Rng rng(137);
  for (int trial = 0; trial < 4; ++trial) {
    wlan::GeneratorParams p;
    p.n_aps = 8;
    p.n_users = 20;
    p.area_side_m = 350.0;
    util::Rng sub = rng.fork();
    const auto sc = wlan::generate_scenario(p, sub);
    const auto sys = setcover::build_set_system(sc);
    const auto opt = exact::exact_min_cost_cover(sys);
    if (opt.status != exact::BbStatus::kOptimal) continue;

    const auto greedy = centralized_mla(sc);
    LocalSearchParams lp;
    lp.objective = SearchObjective::kTotalLoad;
    const auto polished = local_search(sc, greedy.assoc, lp);
    EXPECT_GE(polished.loads.total_load, opt.cost - 1e-9);
    EXPECT_LE(polished.loads.total_load, greedy.loads.total_load + 1e-9);
  }
}

TEST(LocalSearch, RespectsMoveBudget) {
  util::Rng gen(139);
  wlan::GeneratorParams p;
  p.n_aps = 15;
  p.n_users = 60;
  const auto sc = wlan::generate_scenario(p, gen);
  LocalSearchParams lp;
  lp.max_moves = 1;
  LocalSearchStats stats;
  util::Rng srng(1);
  const auto start = ssa_associate(sc, srng);
  local_search(sc, start.assoc, lp, &stats);
  EXPECT_LE(stats.moves, 1);
}

TEST(LocalSearch, DecisionsArePinned) {
  // Every eviction and accepted move, in order, is part of the contract: the
  // digest pins them, so a change to the budget peel or the move loop must
  // reproduce them exactly. Over-budget starts exercise the peel; the 7-move
  // cap and the target stop exercise the early exits.
  const auto starts = test::over_budget_starts();
  int over = 0;
  test::Fnv1a h;
  for (const auto& s : starts) {
    over += test::over_budget_aps(s);
    const double start_total = wlan::compute_loads(s.sc, s.start).total_load;
    for (const auto obj : {SearchObjective::kTotalLoad, SearchObjective::kMaxLoad}) {
      for (const int max_moves : {100000, 7}) {
        for (const double target : {-1.0, 0.9 * start_total}) {
          LocalSearchParams lp;
          lp.objective = obj;
          lp.max_moves = max_moves;
          lp.target_total = target;
          LocalSearchStats stats;
          const auto sol = local_search(s.sc, s.start, lp, &stats);
          h.add(sol.assoc.user_ap);
          h.add(stats.moves);
          h.add(stats.reached_local_optimum);
        }
      }
    }
  }
  ASSERT_GT(over, 0) << "no start is over budget; the peel is not exercised";
  EXPECT_EQ(h.value(), 0x00970da3c7dfa6eaull) << std::hex << "0x" << h.value();
}

TEST(LocalSearch, InvalidStartThrows) {
  const auto sc = test::fig1_scenario(1.0);
  const wlan::Association out_of_range{{1, 0, 0, 0, 0}};  // u1 can't reach a2
  EXPECT_THROW(local_search(sc, out_of_range, {}), std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::assoc
