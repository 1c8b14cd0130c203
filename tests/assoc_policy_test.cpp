#include "wmcast/assoc/policy.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::assoc {
namespace {

using Members = std::vector<std::vector<int>>;

TEST(Policy, UnassociatedUserJoinsBestTotalLoadAp) {
  // Fig. 1, 1 Mbps, distributed MLA walkthrough step for u3: with u1, u2 on
  // a1, u3 joining a1 gives neighbor loads (1/2, 0) sum 1/2; joining a2 gives
  // (1/2, 1/5) sum 7/10 -> picks a1.
  const auto sc = test::fig1_scenario(1.0);
  const Members members = {{0, 1}, {}};
  PolicyParams p;
  p.objective = Objective::kTotalLoad;
  EXPECT_EQ(choose_best_ap(sc, 2, members, wlan::kNoAp, p), 0);
}

TEST(Policy, LoadVectorPrefersBalancedOutcome) {
  // Fig. 1, 1 Mbps, distributed BLA walkthrough step for u4: joining a1 gives
  // sorted vector (7/12, 0); joining a2 gives (1/2, 1/5) -> picks a2.
  const auto sc = test::fig1_scenario(1.0);
  const Members members = {{0, 1, 2}, {}};
  PolicyParams p;
  p.objective = Objective::kLoadVector;
  EXPECT_EQ(choose_best_ap(sc, 3, members, wlan::kNoAp, p), 1);
}

TEST(Policy, TotalLoadPrefersJoiningExistingMulticast) {
  // u3 with u1 already on a1 (s1 at rate 3): joining a1 adds nothing
  // (min(3,4)=3 unchanged); joining a2 adds 1/5. Total-load picks a1.
  const auto sc = test::fig1_scenario(1.0);
  const Members members = {{0}, {}};
  PolicyParams p;
  p.objective = Objective::kTotalLoad;
  EXPECT_EQ(choose_best_ap(sc, 2, members, wlan::kNoAp, p), 0);
}

TEST(Policy, BudgetExcludesInfeasibleAps) {
  // MNU walkthrough: u1 on a1 (s1 at 3 Mbps stream/3 Mbps rate -> load 1);
  // u2 joining a1 would need +0.5 -> 1.5 > budget 1 -> no feasible AP.
  const auto sc = test::fig1_scenario(3.0);
  const Members members = {{0}, {}};
  PolicyParams p;
  p.objective = Objective::kTotalLoad;
  EXPECT_EQ(choose_best_ap(sc, 1, members, wlan::kNoAp, p), wlan::kNoAp);
}

TEST(Policy, BudgetIgnoredWhenDisabled) {
  const auto sc = test::fig1_scenario(3.0);
  const Members members = {{0}, {}};
  PolicyParams p;
  p.objective = Objective::kTotalLoad;
  p.enforce_budget = false;
  EXPECT_EQ(choose_best_ap(sc, 1, members, wlan::kNoAp, p), 0);
}

TEST(Policy, AssociatedUserOnlyMovesOnStrictImprovement) {
  // Fig. 4 sequential step: after u2 moved to a2, u3 sees stay-score == move
  // score is worse, so it stays (see Fig. 4 analysis in the paper).
  const auto sc = test::fig4_scenario();
  // u1 on a1; u2, u3, u4 on a2.
  const Members members = {{0}, {1, 2, 3}};
  PolicyParams p;
  p.objective = Objective::kTotalLoad;
  // u3 (index 2): stay total = 1/5 + 1/4 = 0.45; move to a1: 1/4 + 1/4 = 0.5.
  EXPECT_EQ(choose_best_ap(sc, 2, members, 1, p), 1);
}

TEST(Policy, SimultaneousStyleImprovementDetected) {
  // Fig. 4 from the oscillating start: u2 sees moving to a2 improves
  // 1/2 -> 9/20, so it wants to move (and symmetric u3).
  const auto sc = test::fig4_scenario();
  const Members members = {{0, 1}, {2, 3}};
  PolicyParams p;
  p.objective = Objective::kTotalLoad;
  EXPECT_EQ(choose_best_ap(sc, 1, members, 0, p), 1);
  EXPECT_EQ(choose_best_ap(sc, 2, members, 1, p), 0);
}

TEST(Policy, TieBreaksByStrongestSignal) {
  // Two APs with identical situations; u0 hears a1 at 5 and a2 at 4 -> the
  // stronger-signal a1 wins the tie.
  const std::vector<std::vector<double>> link = {{5}, {4}};
  const auto sc = wlan::Scenario::from_link_rates(link, {0}, {1.0}, 1.0);
  const Members members = {{}, {}};
  PolicyParams p;
  p.objective = Objective::kTotalLoad;
  // Joining a1 costs 1/5, joining a2 costs 1/4: a1 also wins on load; make
  // them symmetric instead.
  const std::vector<std::vector<double>> link_eq = {{4}, {4}};
  const auto sc_eq = wlan::Scenario::from_link_rates(link_eq, {0}, {1.0}, 1.0);
  EXPECT_EQ(choose_best_ap(sc_eq, 0, members, wlan::kNoAp, p), 0);
  (void)sc;
}

TEST(Policy, UserWithNoNeighborsStaysOut) {
  const std::vector<std::vector<double>> link = {{0.0}};
  const auto sc = wlan::Scenario::from_link_rates(link, {0}, {1.0}, 1.0);
  const Members members = {{}};
  PolicyParams p;
  EXPECT_EQ(choose_best_ap(sc, 0, members, wlan::kNoAp, p), wlan::kNoAp);
}

TEST(Policy, LoadVectorConsolidatesSharedSessions) {
  // BLA with one shared session: u0 on a1, u1 on a2, identical rates. Moving
  // u0 to a2 empties a1 while a2's multicast already runs: the sorted vector
  // drops from (1/4, 1/4) to (1/4, 0) -> the move is a strict improvement.
  const std::vector<std::vector<double>> link = {{4, 4}, {4, 4}};
  const auto sc = wlan::Scenario::from_link_rates(link, {0, 0}, {1.0}, 1.0);
  const Members members = {{0}, {1}};
  PolicyParams p;
  p.objective = Objective::kLoadVector;
  EXPECT_EQ(choose_best_ap(sc, 0, members, 0, p), 1);
}

TEST(Policy, LoadVectorStrictImprovementOnly) {
  // BLA with distinct sessions: consolidating would stack both sessions on
  // one AP, raising the max from 1/4 to 1/2 -> the user stays put.
  const std::vector<std::vector<double>> link = {{4, 4}, {4, 4}};
  const auto sc = wlan::Scenario::from_link_rates(link, {0, 1}, {1.0, 1.0}, 1.0);
  const Members members = {{0}, {1}};
  PolicyParams p;
  p.objective = Objective::kLoadVector;
  EXPECT_EQ(choose_best_ap(sc, 0, members, 0, p), 0);
  EXPECT_EQ(choose_best_ap(sc, 1, members, 1, p), 1);
}

TEST(Policy, LoadModelOverloadMatchesRescan) {
  // The LoadModel overload must pick exactly the AP the member-list rescan
  // picks, for every user of a random association: both objectives, budget
  // on and off, single- and multi-rate, budgets tight enough to bind.
  int decisions = 0;
  int moves = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    wlan::GeneratorParams gp;
    gp.n_aps = 6 + static_cast<int>(seed % 4) * 2;
    gp.n_users = 40;
    gp.n_sessions = 3;
    gp.area_side_m = 400.0;
    util::Rng rng(seed);
    const auto sc =
        wlan::generate_scenario(gp, rng).with_budget(seed % 2 == 0 ? 0.3 : 0.9);

    // Random association: every user on a random heard AP, or on none.
    std::vector<int> user_ap(static_cast<size_t>(sc.n_users()), wlan::kNoAp);
    Members members(static_cast<size_t>(sc.n_aps()));
    for (int u = 0; u < sc.n_users(); ++u) {
      const auto heard = sc.aps_of_user(u);
      const int pick = rng.next_int(static_cast<int>(heard.size()) + 1);
      if (pick == static_cast<int>(heard.size())) continue;
      user_ap[static_cast<size_t>(u)] = heard[static_cast<size_t>(pick)];
      members[static_cast<size_t>(heard[static_cast<size_t>(pick)])].push_back(u);
    }

    for (const bool multi_rate : {true, false}) {
      wlan::LoadModel model;
      model.reset(sc, multi_rate);
      for (int u = 0; u < sc.n_users(); ++u) {
        const int a = user_ap[static_cast<size_t>(u)];
        if (a != wlan::kNoAp) model.add(a, sc.user_session(u), sc.link_rate(a, u));
      }
      for (const auto objective : {Objective::kTotalLoad, Objective::kLoadVector}) {
        for (const bool budget : {true, false}) {
          PolicyParams p;
          p.objective = objective;
          p.enforce_budget = budget;
          p.multi_rate = multi_rate;
          for (int u = 0; u < sc.n_users(); ++u) {
            const int cur = user_ap[static_cast<size_t>(u)];
            const int rescan = choose_best_ap(sc, u, members, cur, p);
            EXPECT_EQ(choose_best_ap(sc, model, u, cur, p), rescan)
                << "seed " << seed << " user " << u << " multi_rate " << multi_rate
                << " vector " << (objective == Objective::kLoadVector)
                << " budget " << budget;
            ++decisions;
            if (rescan != cur) ++moves;
          }
        }
      }
    }
  }
  EXPECT_EQ(decisions, 8 * 2 * 2 * 2 * 40);
  EXPECT_GT(moves, 0) << "the instances must exercise moves, not just stays";
}

}  // namespace
}  // namespace wmcast::assoc
