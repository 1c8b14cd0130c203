#include "wmcast/wlan/association.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/assoc/kconn.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::wlan {
namespace {

TEST(ComputeLoads, Fig1BlaOptimalLoads) {
  // Paper §3.2: with 1 Mbps streams, u1,u2,u3 -> a1 and u4,u5 -> a2 yields
  // loads (1/2, 1/3): a1 sends s1 at min(3,4)=3 and s2 at 6; a2 sends s2 at
  // min(5,3)=3.
  const Scenario sc = test::fig1_scenario(1.0);
  const Association assoc{{0, 0, 0, 1, 1}};
  const LoadReport rep = compute_loads(sc, assoc);
  EXPECT_NEAR(rep.ap_load[0], 0.5, 1e-12);
  EXPECT_NEAR(rep.ap_load[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.max_load, 0.5, 1e-12);
  EXPECT_NEAR(rep.total_load, 0.5 + 1.0 / 3.0, 1e-12);
  EXPECT_EQ(rep.satisfied_users, 5);
  EXPECT_TRUE(rep.within_budget());
  EXPECT_DOUBLE_EQ(rep.tx_rate[0][0], 3.0);
  EXPECT_DOUBLE_EQ(rep.tx_rate[0][1], 6.0);
  EXPECT_DOUBLE_EQ(rep.tx_rate[1][1], 3.0);
  EXPECT_DOUBLE_EQ(rep.tx_rate[1][0], 0.0);  // a2 does not transmit s1
}

TEST(ComputeLoads, Fig1MlaOptimalAllOnA1) {
  // Paper §3.2: all users on a1 gives total load 1/3 + 1/4 = 7/12.
  const Scenario sc = test::fig1_scenario(1.0);
  const Association assoc{{0, 0, 0, 0, 0}};
  const LoadReport rep = compute_loads(sc, assoc);
  EXPECT_NEAR(rep.total_load, 7.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(rep.tx_rate[0][1], 4.0);  // s2 at min(6,4,4)
}

TEST(ComputeLoads, Fig1MnuInfeasibleAllUsers) {
  // With 3 Mbps streams, a1 serving u1 and u2 needs 3/3 + 3/6 = 1.5 > 1.
  const Scenario sc = test::fig1_scenario(3.0);
  const Association assoc{{0, 0, kNoAp, kNoAp, kNoAp}};
  const LoadReport rep = compute_loads(sc, assoc);
  EXPECT_NEAR(rep.ap_load[0], 1.5, 1e-12);
  EXPECT_EQ(rep.budget_violations, 1);
  EXPECT_FALSE(rep.within_budget());
  EXPECT_EQ(rep.satisfied_users, 2);
}

TEST(ComputeLoads, UnassociatedUsersContributeNothing) {
  const Scenario sc = test::fig1_scenario(1.0);
  const Association assoc = Association::none(5);
  const LoadReport rep = compute_loads(sc, assoc);
  EXPECT_DOUBLE_EQ(rep.total_load, 0.0);
  EXPECT_EQ(rep.satisfied_users, 0);
  EXPECT_TRUE(rep.within_budget());
}

TEST(ComputeLoads, RejectsOutOfRangeAssignment) {
  const Scenario sc = test::fig1_scenario(1.0);
  // u1 cannot reach a2 (rate 0).
  const Association bad{{1, 0, 0, 0, 0}};
  EXPECT_THROW(compute_loads(sc, bad), std::invalid_argument);
  const Association bad_ap{{7, 0, 0, 0, 0}};
  EXPECT_THROW(compute_loads(sc, bad_ap), std::invalid_argument);
  const Association wrong_size{{0, 0}};
  EXPECT_THROW(compute_loads(sc, wrong_size), std::invalid_argument);
}

TEST(ComputeLoads, BasicRateModeUsesLowestRateEverywhere) {
  const Scenario sc = test::fig1_scenario(1.0);
  const Association assoc{{0, 0, 0, 1, 1}};
  // Basic rate of the Fig. 1 instance is 3 Mbps (lowest positive link rate).
  const LoadReport rep = compute_loads(sc, assoc, /*multi_rate=*/false);
  EXPECT_DOUBLE_EQ(rep.tx_rate[0][0], 3.0);
  EXPECT_DOUBLE_EQ(rep.tx_rate[0][1], 3.0);  // not 6 (u2's rate)
  EXPECT_NEAR(rep.ap_load[0], 1.0 / 3.0 + 1.0 / 3.0, 1e-12);
  // Multi-rate strictly better on a1: 1/3 + 1/6 < 2/3.
  const LoadReport multi = compute_loads(sc, assoc, /*multi_rate=*/true);
  EXPECT_LT(multi.ap_load[0], rep.ap_load[0]);
}

void expect_same_multi_loads(const MultiLoadReport& x, const MultiLoadReport& y) {
  EXPECT_EQ(x.tx_rate, y.tx_rate);
  EXPECT_EQ(x.ap_load, y.ap_load);
  EXPECT_EQ(x.effective_rate, y.effective_rate);
  EXPECT_EQ(x.total_load, y.total_load);
  EXPECT_EQ(x.max_load, y.max_load);
  EXPECT_EQ(x.mean_effective_rate, y.mean_effective_rate);
  EXPECT_EQ(x.satisfied_users, y.satisfied_users);
  EXPECT_EQ(x.multi_served_users, y.multi_served_users);
  EXPECT_EQ(x.budget_violations, y.budget_violations);
}

// The single-AP and multi-AP reports share one per-AP fold: a lifted
// single-AP association reports bitwise the single-AP loads, and folding a
// report's own tx table reproduces that report bitwise.
TEST(ComputeLoads, LiftedMultiLoadsMatchSingle) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    GeneratorParams gp;
    gp.n_aps = 20;
    gp.n_users = 150;
    gp.n_sessions = 4;
    gp.area_side_m = 500.0;
    util::Rng rng(seed);
    const Scenario sc = generate_scenario(gp, rng);

    Association partial = Association::none(sc.n_users());
    for (int u = 0; u < sc.n_users(); ++u) {
      const IndexSpan heard = sc.aps_of_user(u);
      if (heard.size() > 0 && rng.next_bool(0.7)) {
        partial.user_ap[static_cast<size_t>(u)] =
            heard[static_cast<size_t>(rng.next_int(static_cast<int>(heard.size())))];
      }
    }
    for (const bool multi_rate : {true, false}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " multi_rate " << multi_rate);
      assoc::SolveOptions opt;
      opt.multi_rate = multi_rate;
      const Association mla = assoc::solve_by_name("mla-c", sc, rng, opt).assoc;
      for (const Association& a : {mla, partial}) {
        const LoadReport single = compute_loads(sc, a, multi_rate);
        const MultiAssociation lifted = MultiAssociation::from_single(a);
        const MultiLoadReport multi = compute_multi_loads(sc, lifted, multi_rate);
        EXPECT_EQ(multi.tx_rate, single.tx_rate);
        EXPECT_EQ(multi.ap_load, single.ap_load);
        EXPECT_EQ(multi.total_load, single.total_load);
        EXPECT_EQ(multi.max_load, single.max_load);
        EXPECT_EQ(multi.satisfied_users, single.satisfied_users);
        EXPECT_EQ(multi.budget_violations, single.budget_violations);
        expect_same_multi_loads(multi_loads_from_tx(sc, lifted, multi.tx_rate), multi);

        // Multi-served users too: a k=2 overlay on the same base.
        assoc::KconnParams kp;
        kp.k = 2;
        kp.multi_rate = multi_rate;
        const MultiAssociation k2 = assoc::augment_to_k(sc, a, single, kp);
        const MultiLoadReport r = compute_multi_loads(sc, k2, multi_rate);
        expect_same_multi_loads(multi_loads_from_tx(sc, k2, r.tx_rate), r);
      }
    }
  }
}

TEST(ApLoadForMembers, MatchesComputeLoads) {
  const Scenario sc = test::fig1_scenario(1.0);
  const Association assoc{{0, 0, 0, 1, 1}};
  const LoadReport rep = compute_loads(sc, assoc);
  EXPECT_NEAR(ap_load_for_members(sc, 0, {0, 1, 2}), rep.ap_load[0], 1e-12);
  EXPECT_NEAR(ap_load_for_members(sc, 1, {3, 4}), rep.ap_load[1], 1e-12);
  EXPECT_DOUBLE_EQ(ap_load_for_members(sc, 0, {}), 0.0);
}

TEST(Association, NoneFactory) {
  const Association a = Association::none(3);
  EXPECT_EQ(a.n_users(), 3);
  EXPECT_EQ(a.ap_of(0), kNoAp);
  EXPECT_EQ(a.ap_of(2), kNoAp);
}

}  // namespace
}  // namespace wmcast::wlan
