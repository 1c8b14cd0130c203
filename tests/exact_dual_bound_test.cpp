#include "wmcast/exact/dual_bound.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/exact/exact_mla.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::exact {
namespace {

TEST(DualAscent, SandwichesTheOptimumOnFig1) {
  const auto sc = test::fig1_scenario(1.0);
  const auto sys = setcover::build_set_system(sc);
  const auto dual = set_cover_dual_ascent(sys);
  const auto opt = exact_min_cost_cover(sys);
  ASSERT_EQ(opt.status, BbStatus::kOptimal);  // 7/12
  EXPECT_LE(dual.lower_bound, opt.cost + 1e-9);
  EXPECT_GT(dual.lower_bound, 0.0);
}

TEST(DualAscent, PricesAreDualFeasible) {
  util::Rng rng(173);
  wlan::GeneratorParams p;
  p.n_aps = 15;
  p.n_users = 50;
  const auto sc = wlan::generate_scenario(p, rng);
  const auto sys = setcover::build_set_system(sc);
  const auto dual = set_cover_dual_ascent(sys);
  // Every set's constraint holds: sum of member prices <= cost.
  for (int j = 0; j < sys.n_sets(); ++j) {
    double total = 0.0;
    sys.set(j).members.for_each(
        [&](int e) { total += dual.price[static_cast<size_t>(e)]; });
    EXPECT_LE(total, sys.set(j).cost + 1e-9) << "set " << j;
  }
  // The bound equals the price sum over coverable elements.
  double sum = 0.0;
  sys.coverable().for_each([&](int e) { sum += dual.price[static_cast<size_t>(e)]; });
  EXPECT_NEAR(sum, dual.lower_bound, 1e-9);
}

TEST(DualAscent, LowerBoundsEveryExactOptimum) {
  util::Rng rng(179);
  for (int trial = 0; trial < 6; ++trial) {
    wlan::GeneratorParams p;
    p.n_aps = 8;
    p.n_users = 25;
    p.area_side_m = 400.0;
    util::Rng sub = rng.fork();
    const auto sc = wlan::generate_scenario(p, sub);
    const auto sys = setcover::build_set_system(sc);
    const auto opt = exact_min_cost_cover(sys);
    if (opt.status != BbStatus::kOptimal) continue;
    const auto dual = set_cover_dual_ascent(sys);
    EXPECT_LE(dual.lower_bound, opt.cost + 1e-9) << "trial " << trial;
    // Dual ascent is typically within a small factor on these instances.
    EXPECT_GE(dual.lower_bound, 0.2 * opt.cost);
  }
}

TEST(DualAscent, TightSetsFormACover) {
  util::Rng rng(181);
  wlan::GeneratorParams p;
  p.n_aps = 12;
  p.n_users = 40;
  const auto sc = wlan::generate_scenario(p, rng);
  const auto sys = setcover::build_set_system(sc);
  const auto dual = set_cover_dual_ascent(sys);
  util::DynBitset covered(sys.n_elements());
  for (const int j : dual.tight_sets) covered.or_assign(sys.set(j).members);
  EXPECT_TRUE(sys.coverable().is_subset_of(covered));
}

TEST(DualAscent, ExactOnSingleSetInstances) {
  // One set covering one element at cost c: the bound is exactly c.
  util::DynBitset m(1);
  m.set(0);
  const setcover::SetSystem sys(1, 1, {setcover::CandidateSet{m, 2.5, 0, 0, 0, 1.0}});
  const auto dual = set_cover_dual_ascent(sys);
  EXPECT_NEAR(dual.lower_bound, 2.5, 1e-12);
  EXPECT_EQ(dual.tight_sets.size(), 1u);
}

TEST(DualAscent, FrequencyBoundHolds) {
  // Standard guarantee: OPT <= f * dual bound (the tight sets overcount each
  // element's price at most f times). Check against the greedy upper bound.
  const auto sc = test::fig1_scenario(1.0);
  const auto sys = setcover::build_set_system(sc);
  const auto dual = set_cover_dual_ascent(sys);
  const core::CoverageEngine eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;
  const auto greedy = core::greedy_cover(eng, ws);
  ASSERT_TRUE(greedy.complete);
  // f = 3 on this instance (see layering tests).
  EXPECT_LE(greedy.total_cost, 3.0 * dual.lower_bound + 1e-9);
}

}  // namespace
}  // namespace wmcast::exact
