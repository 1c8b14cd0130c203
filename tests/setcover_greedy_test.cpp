#include "wmcast/core/solve.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"

namespace wmcast::setcover {
namespace {

SetSystem make_system(int n_elements, int n_groups,
                      const std::vector<std::tuple<std::vector<int>, double, int>>& defs) {
  std::vector<CandidateSet> sets;
  for (const auto& [members, cost, group] : defs) {
    CandidateSet s;
    s.members = util::DynBitset(n_elements);
    for (const int e : members) s.members.set(e);
    s.cost = cost;
    s.group = group;
    s.ap = group;
    sets.push_back(std::move(s));
  }
  return SetSystem(n_elements, n_groups, std::move(sets));
}

TEST(GreedySetCover, PapersMlaWalkthrough) {
  // §6.1 example: on the Fig. 1 WLAN with 1 Mbps streams, CostSC first picks
  // (a1, s2, rate 4) with ratio 3/(1/4)=12, then (a1, s1, rate 3) with ratio
  // 2/(1/3)=6, for a total cost of 7/12 — the optimal solution.
  const auto sc = test::fig1_scenario(1.0);
  const SetSystem sys = build_set_system(sc);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const core::CoverResult res = core::greedy_cover(eng, ws);
  ASSERT_TRUE(res.complete);
  ASSERT_EQ(res.chosen.size(), 2u);
  EXPECT_EQ(sys.set(res.chosen[0]).ap, 0);
  EXPECT_EQ(sys.set(res.chosen[0]).session, 1);
  EXPECT_DOUBLE_EQ(sys.set(res.chosen[0]).tx_rate, 4.0);
  EXPECT_EQ(sys.set(res.chosen[1]).ap, 0);
  EXPECT_EQ(sys.set(res.chosen[1]).session, 0);
  EXPECT_DOUBLE_EQ(sys.set(res.chosen[1]).tx_rate, 3.0);
  EXPECT_NEAR(res.total_cost, 7.0 / 12.0, 1e-12);
  EXPECT_EQ(res.covered.count(), 5);
}

TEST(GreedySetCover, CoversEverythingCoverable) {
  const auto sys = make_system(4, 1,
                               {
                                   {{0, 1}, 1.0, 0},
                                   {{2}, 1.0, 0},
                               });
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::greedy_cover(eng, ws);
  // Element 3 is uncoverable; the greedy covers the rest and reports complete
  // (complete == covered every *coverable* element).
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.covered.count(), 3);
}

TEST(GreedySetCover, PrefersCostEffectiveSets) {
  // One big expensive set vs two cheap ones covering the same ground.
  const auto sys = make_system(4, 1,
                               {
                                   {{0, 1, 2, 3}, 10.0, 0},
                                   {{0, 1}, 1.0, 0},
                                   {{2, 3}, 1.0, 0},
                               });
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::greedy_cover(eng, ws);
  EXPECT_TRUE(res.complete);
  EXPECT_NEAR(res.total_cost, 2.0, 1e-12);
  EXPECT_EQ(res.chosen.size(), 2u);
}

TEST(GreedySetCover, ClassicLogFactorTrap) {
  // The classic tight example: greedy picks the large "diagonal" set first
  // and pays more than OPT, but stays within (ln n + 1) * OPT.
  const auto sys = make_system(6, 1,
                               {
                                   {{0, 1, 2, 3, 4, 5}, 1.0 + 1e-9, 0},  // OPT alone
                                   {{0, 1, 2}, 0.5, 0},
                                   {{3, 4}, 0.34, 0},
                                   {{5}, 0.17, 0},
                               });
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::greedy_cover(eng, ws);
  EXPECT_TRUE(res.complete);
  const double opt = 1.0 + 1e-9;
  EXPECT_LE(res.total_cost, (std::log(6.0) + 1.0) * opt);
}

TEST(GreedySetCover, RestrictToLimitsTheTarget) {
  const auto sys = make_system(4, 1,
                               {
                                   {{0, 1}, 1.0, 0},
                                   {{2, 3}, 5.0, 0},
                               });
  util::DynBitset only01(4);
  only01.set(0);
  only01.set(1);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::greedy_cover(eng, ws, &only01);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.chosen.size(), 1u);
  EXPECT_NEAR(res.total_cost, 1.0, 1e-12);
}

TEST(GreedySetCover, EmptyTargetChoosesNothing) {
  const auto sys = make_system(2, 1, {{{0, 1}, 1.0, 0}});
  util::DynBitset empty(2);
  const core::CoverageEngine eng = to_engine(sys);
  core::SolveWorkspace ws;
  const auto res = core::greedy_cover(eng, ws, &empty);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.chosen.empty());
  EXPECT_DOUBLE_EQ(res.total_cost, 0.0);
}

TEST(GreedySetCover, LazyEvaluationMatchesEagerGreedy) {
  // Cross-check the CELF implementation against a naive eager greedy on
  // random instances.
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 30;
    std::vector<std::tuple<std::vector<int>, double, int>> defs;
    const int m = 12 + rng.next_int(10);
    for (int j = 0; j < m; ++j) {
      std::vector<int> members;
      for (int e = 0; e < n; ++e) {
        if (rng.next_bool(0.2)) members.push_back(e);
      }
      if (members.empty()) members.push_back(rng.next_int(n));
      defs.emplace_back(members, 0.1 + rng.next_double(), 0);
    }
    const auto sys = make_system(n, 1, defs);

    // Naive eager greedy.
    util::DynBitset remaining = sys.coverable();
    double eager_cost = 0.0;
    while (remaining.any()) {
      int best = -1;
      double best_ratio = 0.0;
      for (int j = 0; j < sys.n_sets(); ++j) {
        const int gain = sys.set(j).members.and_count(remaining);
        if (gain <= 0) continue;
        const double ratio = gain / sys.set(j).cost;
        if (best == -1 || ratio > best_ratio) {
          best = j;
          best_ratio = ratio;
        }
      }
      if (best == -1) break;
      eager_cost += sys.set(best).cost;
      remaining.andnot_assign(sys.set(best).members);
    }

    const core::CoverageEngine eng = to_engine(sys);
    core::SolveWorkspace ws;
    const auto lazy = core::greedy_cover(eng, ws);
    EXPECT_NEAR(lazy.total_cost, eager_cost, 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace wmcast::setcover
