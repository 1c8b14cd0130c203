#include "wmcast/core/solve.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/exact/exact_mla.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::setcover {
namespace {

TEST(Layering, CoversTheFig1Instance) {
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::layered_cover(eng, ws);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.covered.count(), 5);
  EXPECT_GT(res.layers, 0);
  // Never worse than f times the optimum (7/12 on this instance).
  const int f = core::max_element_frequency(eng);
  EXPECT_LE(res.total_cost, f * (7.0 / 12.0) + 1e-9);
}

TEST(Layering, MaxElementFrequencyFig1) {
  // u3 appears in (a1,s1,4), (a1,s1,3) and (a2,s1,5): frequency 3; u4 in
  // (a1,s2,4), (a2,s2,5), (a2,s2,3): frequency 3.
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  EXPECT_EQ(core::max_element_frequency(to_engine(sys)), 3);
}

TEST(Layering, WithinFTimesOptimalOnRandomInstances) {
  // The paper's §6.1 remark: when every user hears a bounded number of APs,
  // the layering algorithm is a constant-factor approximation.
  util::Rng rng(149);
  int tested = 0;
  while (tested < 8) {
    wlan::GeneratorParams p;
    p.n_aps = 6;
    p.n_users = 12 + rng.next_int(8);
    p.n_sessions = 2;
    p.area_side_m = 350.0;
    util::Rng sub = rng.fork();
    const auto sc = wlan::generate_scenario(p, sub);
    const SetSystem sys = build_set_system(sc);
    exact::BbLimits limits;
    limits.time_limit_s = 3.0;
    const auto opt = exact::exact_min_cost_cover(sys, limits);
    if (opt.status != exact::BbStatus::kOptimal) continue;
    ++tested;

    const core::CoverageEngine eng = to_engine(sys);
    core::SolveWorkspace ws;
    const auto layered = core::layered_cover(eng, ws);
    EXPECT_TRUE(layered.complete);
    const int f = core::max_element_frequency(eng);
    EXPECT_LE(layered.total_cost, f * opt.cost + 1e-9) << "f=" << f;
    EXPECT_GE(layered.total_cost, opt.cost - 1e-9);
  }
}

TEST(Layering, SingleSetInstanceIsExact) {
  // One set covering everything: layering picks exactly it.
  util::DynBitset members(3);
  members.set(0);
  members.set(1);
  members.set(2);
  CandidateSet s{members, 2.5, 0, 0, 0, 1.0};
  const SetSystem sys(3, 1, {s});
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::layered_cover(eng, ws);
  EXPECT_TRUE(res.complete);
  ASSERT_EQ(res.chosen.size(), 1u);
  EXPECT_NEAR(res.total_cost, 2.5, 1e-12);
  EXPECT_EQ(res.layers, 1);
}

TEST(Layering, TightFrequencyTwoExample) {
  // Vertex-cover-style instance (every element in exactly 2 sets): layering
  // can pay up to 2x OPT but no more. Elements {0,1}; sets A={0}, B={1},
  // C={0,1}. Costs: A=1, B=1, C=1.1. OPT = C (1.1). Layering: eps =
  // min(1/1, 1/1, 1.1/2)=0.55 -> C exhausted? 1.1-2*0.55 = 0 -> picks C.
  util::DynBitset a(2), b(2), c(2);
  a.set(0);
  b.set(1);
  c.set(0);
  c.set(1);
  const SetSystem sys(2, 1,
                      {CandidateSet{a, 1.0, 0, 0, 0, 1.0},
                       CandidateSet{b, 1.0, 0, 0, 0, 1.0},
                       CandidateSet{c, 1.1, 0, 0, 0, 1.0}});
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::layered_cover(eng, ws);
  EXPECT_TRUE(res.complete);
  EXPECT_NEAR(res.total_cost, 1.1, 1e-9);
  EXPECT_EQ(core::max_element_frequency(eng), 2);
}

TEST(Layering, ComparableToGreedyOnWlanInstances) {
  // Neither dominates in theory (ln n vs f); on WLAN instances both cover
  // everything and land in the same ballpark.
  util::Rng rng(151);
  wlan::GeneratorParams p;
  p.n_aps = 30;
  p.n_users = 80;
  const auto sc = wlan::generate_scenario(p, rng);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto layered = core::layered_cover(eng, ws);
  const auto greedy = core::greedy_cover(eng, ws);
  EXPECT_TRUE(layered.complete);
  EXPECT_TRUE(greedy.complete);
  EXPECT_LT(layered.total_cost, 5.0 * greedy.total_cost);
  EXPECT_LT(greedy.total_cost, 5.0 * layered.total_cost);
}

}  // namespace
}  // namespace wmcast::setcover
