#include "wmcast/setcover/materialize.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::setcover {
namespace {

TEST(Materialize, AssignsUsersToFirstCoveringSet) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto greedy = core::greedy_cover(eng, ws);
  const wlan::Association assoc = materialize(sc, sys, greedy.chosen);
  // The MLA walkthrough: everyone lands on a1.
  for (int u = 0; u < 5; ++u) EXPECT_EQ(assoc.ap_of(u), 0);
}

TEST(Materialize, UncoveredUsersStayUnassociated) {
  const auto sc = test::fig1_scenario(3.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> budgets(2, 1.0);
  const core::McgResult mcg = core::mcg_cover(eng, ws, budgets);
  const wlan::Association assoc = materialize(sc, sys, mcg.chosen);
  // The §4.1 outcome: u2, u4, u5 on a1; u1, u3 unserved.
  EXPECT_EQ(assoc.ap_of(0), wlan::kNoAp);
  EXPECT_EQ(assoc.ap_of(1), 0);
  EXPECT_EQ(assoc.ap_of(2), wlan::kNoAp);
  EXPECT_EQ(assoc.ap_of(3), 0);
  EXPECT_EQ(assoc.ap_of(4), 0);
}

TEST(Materialize, LoadNeverExceedsSummedSetCosts) {
  // The documented invariant: per-AP materialized load <= the summed cost of
  // that AP's chosen sets (merging nested sets only helps).
  util::Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    wlan::GeneratorParams p;
    p.n_aps = 15;
    p.n_users = 40;
    p.n_sessions = 4;
    util::Rng sub = rng.fork();
    const auto sc = wlan::generate_scenario(p, sub);
    const SetSystem sys = build_set_system(sc);
    const core::CoverageEngine eng = to_engine(sys);
    core::SolveWorkspace ws;
    const auto greedy = core::greedy_cover(eng, ws);
    const auto assoc = materialize(sc, sys, greedy.chosen);
    const auto rep = wlan::compute_loads(sc, assoc);

    std::vector<double> cost_sum(static_cast<size_t>(sc.n_aps()), 0.0);
    for (const int j : greedy.chosen) {
      cost_sum[static_cast<size_t>(sys.set(j).ap)] += sys.set(j).cost;
    }
    for (int a = 0; a < sc.n_aps(); ++a) {
      EXPECT_LE(rep.ap_load[static_cast<size_t>(a)],
                cost_sum[static_cast<size_t>(a)] + 1e-9);
    }
    // Every coverable user is served (greedy covers, materialize assigns).
    EXPECT_EQ(rep.satisfied_users, sc.n_coverable_users());
  }
}

TEST(Materialize, SatisfiedUsersEqualsCoveredCount) {
  const auto sc = test::fig1_scenario(3.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const std::vector<double> budgets(2, 1.0);
  const core::McgResult mcg = core::mcg_cover(eng, ws, budgets);
  const auto assoc = materialize(sc, sys, mcg.chosen);
  const auto rep = wlan::compute_loads(sc, assoc);
  EXPECT_EQ(rep.satisfied_users, mcg.covered.count());
}

TEST(Materialize, EmptyChoiceGivesEmptyAssociation) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const auto assoc = materialize(sc, sys, {});
  for (int u = 0; u < sc.n_users(); ++u) EXPECT_EQ(assoc.ap_of(u), wlan::kNoAp);
}

TEST(Materialize, InvalidSetIndexThrows) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const std::vector<int> bad = {sys.n_sets()};
  EXPECT_THROW(materialize(sc, sys, bad), std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::setcover
