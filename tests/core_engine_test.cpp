// CoverageEngine unit tests: the flat engine must represent exactly the same
// set system the paper's reduction builds, id for id, with an inverted index
// that lists exactly each element's containing sets; rebuilding into a used
// engine must equal a fresh build, and the solvers must refuse an engine
// whose index was never built.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast {
namespace {

wlan::Scenario small_scenario(uint64_t seed, int n_aps = 8, int n_users = 30) {
  wlan::GeneratorParams p;
  p.n_aps = n_aps;
  p.n_users = n_users;
  p.n_sessions = 3;
  p.area_side_m = 400.0;
  util::Rng rng(seed);
  return wlan::generate_scenario(p, rng);
}

core::CoverageEngine engine_of(const wlan::Scenario& sc, bool multi_rate = true) {
  core::CoverageEngine eng;
  setcover::build_engine(sc, multi_rate, eng);
  return eng;
}

/// Canonical order-free snapshot of the sets: ids and member order are
/// representation details, the multiset of (group, session, tx_rate, cost,
/// sorted members) is the semantics.
using CanonicalSet = std::tuple<int, int, double, double, std::vector<int>>;

std::vector<CanonicalSet> canonical(const core::CoverageEngine& eng) {
  std::vector<CanonicalSet> out;
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    std::vector<int> members(eng.members(j).begin(), eng.members(j).end());
    std::sort(members.begin(), members.end());
    out.emplace_back(eng.group(j), eng.session(j), eng.tx_rate(j), eng.cost(j),
                     std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts that engine set j is set j of `sys` for every j: same group,
/// session, tx rate, cost and member set.
void expect_same_sets(const core::CoverageEngine& eng, const setcover::SetSystem& sys) {
  ASSERT_EQ(eng.n_set_slots(), sys.n_sets());
  ASSERT_EQ(eng.n_elements(), sys.n_elements());
  ASSERT_EQ(eng.n_groups(), sys.n_groups());
  for (int j = 0; j < sys.n_sets(); ++j) {
    const auto& s = sys.set(j);
    EXPECT_EQ(eng.group(j), s.group) << "set " << j;
    EXPECT_EQ(eng.session(j), s.session) << "set " << j;
    EXPECT_EQ(eng.tx_rate(j), s.tx_rate) << "set " << j;
    EXPECT_EQ(eng.cost(j), s.cost) << "set " << j;
    std::vector<int> members(eng.members(j).begin(), eng.members(j).end());
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, s.members.to_indices()) << "set " << j;
  }
  EXPECT_EQ(eng.coverable(), sys.coverable());
}

TEST(CoverageEngine, ToEngineMirrorsSetSystem) {
  const auto sc = small_scenario(11);
  const auto sys = setcover::build_set_system(sc);
  const auto eng = setcover::to_engine(sys);

  expect_same_sets(eng, sys);
  ASSERT_EQ(eng.n_live_sets(), sys.n_sets());
  for (int j = 0; j < sys.n_sets(); ++j) EXPECT_TRUE(eng.alive(j));
  EXPECT_EQ(eng.max_set_cost(), sys.max_set_cost());
  EXPECT_EQ(eng.min_feasible_budget(), sys.min_feasible_budget());
}

TEST(CoverageEngine, BuildFullMatchesReductionThroughSetSystem) {
  for (uint64_t seed : {3u, 7u, 19u}) {
    const auto sc = small_scenario(seed);
    const auto via_sys = setcover::to_engine(setcover::build_set_system(sc));
    const auto direct = engine_of(sc);
    EXPECT_EQ(canonical(direct), canonical(via_sys)) << "seed " << seed;
    EXPECT_EQ(direct.coverable(), via_sys.coverable());
  }
}

TEST(CoverageEngine, BuildEngineMatchesSetSystemIdForId) {
  for (uint64_t seed : {3u, 7u, 19u, 29u}) {
    const auto sc = small_scenario(seed);
    for (const bool multi_rate : {true, false}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " multi_rate " << multi_rate);
      expect_same_sets(engine_of(sc, multi_rate), setcover::build_set_system(sc, multi_rate));
    }
  }
}

TEST(CoverageEngine, InvertedIndexListsExactlyContainingSets) {
  // A scenario build and a SetSystem translation, whose sets arrive in a
  // different member order; both index every element's sets by ascending id.
  const auto sc = small_scenario(23);
  for (const auto& eng :
       {engine_of(sc), setcover::to_engine(setcover::build_set_system(sc))}) {
    for (int e = 0; e < eng.n_elements(); ++e) {
      std::vector<int> via_index;
      eng.for_each_set_of(e, [&](int j) { via_index.push_back(j); });
      std::vector<int> via_scan;
      for (int j = 0; j < eng.n_set_slots(); ++j) {
        const auto m = eng.members(j);
        if (std::find(m.begin(), m.end(), e) != m.end()) via_scan.push_back(j);
      }
      EXPECT_EQ(via_index, via_scan) << "element " << e;
    }
  }
}

/// Asserts that two engines hold the same sets under the same ids (members in
/// the same order), the same coverable set and the same per-element index,
/// and that the greedy picks the same sets at the same cost on both.
void expect_same_engine(const core::CoverageEngine& a, const core::CoverageEngine& b) {
  ASSERT_EQ(a.n_elements(), b.n_elements());
  ASSERT_EQ(a.n_groups(), b.n_groups());
  ASSERT_EQ(a.n_set_slots(), b.n_set_slots());
  for (int j = 0; j < a.n_set_slots(); ++j) {
    EXPECT_EQ(a.group(j), b.group(j)) << "set " << j;
    EXPECT_EQ(a.session(j), b.session(j)) << "set " << j;
    EXPECT_EQ(a.tx_rate(j), b.tx_rate(j)) << "set " << j;
    EXPECT_EQ(a.cost(j), b.cost(j)) << "set " << j;
    EXPECT_TRUE(std::ranges::equal(a.members(j), b.members(j))) << "set " << j;
  }
  EXPECT_EQ(a.coverable(), b.coverable());
  for (int e = 0; e < a.n_elements(); ++e) {
    std::vector<int> in_a;
    std::vector<int> in_b;
    a.for_each_set_of(e, [&](int j) { in_a.push_back(j); });
    b.for_each_set_of(e, [&](int j) { in_b.push_back(j); });
    EXPECT_EQ(in_a, in_b) << "element " << e;
  }
  core::SolveWorkspace ws_a;
  core::SolveWorkspace ws_b;
  const auto ga = core::greedy_cover(a, ws_a);
  const auto gb = core::greedy_cover(b, ws_b);
  EXPECT_EQ(ga.chosen, gb.chosen);
  EXPECT_EQ(ga.total_cost, gb.total_cost);
}

TEST(CoverageEngine, RebuildIntoUsedEngineEqualsFreshBuild) {
  // The controller keeps one engine and rebuilds it for every full solve: a
  // build must not inherit anything from the network it replaces, whether
  // the next one is smaller or larger.
  const auto large = small_scenario(67, 12, 50);
  const auto small = small_scenario(71, 5, 20);
  core::CoverageEngine used;
  for (const auto* sc : {&large, &small, &large}) {
    setcover::build_engine(*sc, true, used);
    expect_same_engine(used, engine_of(*sc));
  }
}

TEST(CoverageEngine, SolversRejectAnUnfinishedEngine) {
  core::CoverageEngine eng;
  eng.reset(3, 1);
  const std::vector<int32_t> m{0, 2};
  eng.add_set(0, 0, 6.0, 0.5, m);
  EXPECT_FALSE(eng.indexed());
  core::SolveWorkspace ws;
  EXPECT_THROW(core::greedy_cover(eng, ws), std::invalid_argument);

  eng.finish();
  EXPECT_TRUE(eng.indexed());
  const auto res = core::greedy_cover(eng, ws);
  EXPECT_EQ(res.chosen, std::vector<int>{0});
  EXPECT_TRUE(res.complete);
  // Read-only once indexed.
  EXPECT_THROW(eng.add_set(0, 0, 6.0, 0.5, m), std::invalid_argument);
}

TEST(CoverageEngine, WarmWorkspaceSolvesAreIdentical) {
  const auto sc = small_scenario(61, 12, 50);
  const auto eng = engine_of(sc);
  core::SolveWorkspace ws;
  const auto first = core::greedy_cover(eng, ws);
  const auto second = core::greedy_cover(eng, ws);
  EXPECT_EQ(first.chosen, second.chosen);
  EXPECT_EQ(first.total_cost, second.total_cost);
  EXPECT_EQ(first.covered, second.covered);

  const auto scg1 = core::scg_cover(eng, ws);
  const auto scg2 = core::scg_cover(eng, ws);
  EXPECT_EQ(scg1.chosen, scg2.chosen);
  EXPECT_EQ(scg1.bstar, scg2.bstar);
}

}  // namespace
}  // namespace wmcast
