// CoverageEngine unit tests: the flat engine must represent exactly the same
// set system the paper's reduction builds, and its dirty-group update
// protocol must be indistinguishable from rebuilding from scratch — across
// retires, universe growth, and compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/ctrl/events.hpp"
#include "wmcast/ctrl/state.hpp"
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

/// A NetworkState seen by the engine in slot space: elements are slots (ids
/// stable across churn, so the universe only grows), groups are APs, and slots
/// not wanting service join no candidate set. NetworkState keeps no per-AP
/// member list, so every slot is offered and the engine filters by
/// link_rate > 0 — the superset contract of for_each_element_of_group.
class StateSource {
 public:
  explicit StateSource(const ctrl::NetworkState& st) : st_(&st) {}

  int n_elements() const { return st_->n_slots(); }
  int n_groups() const { return st_->n_aps(); }
  int n_sessions() const { return st_->n_sessions(); }
  double session_rate(int s) const { return st_->session_rate(s); }
  int element_session(int e) const { return st_->slot(e).session; }
  bool element_active(int e) const { return st_->slot(e).wants_service(); }
  double link_rate(int g, int e) const { return st_->link_rate(g, e); }
  double basic_rate() const { return st_->rate_table().basic_rate(); }

  template <typename Fn>
  void for_each_element_of_group(int /*g*/, Fn&& fn) const {
    for (int s = 0; s < st_->n_slots(); ++s) fn(s);
  }

 private:
  const ctrl::NetworkState* st_;
};

/// Canonical order-free snapshot of the live sets: ids and member order are
/// representation details, the multiset of (group, session, tx_rate, cost,
/// sorted members) is the semantics.
using CanonicalSet = std::tuple<int, int, double, double, std::vector<int>>;

std::vector<CanonicalSet> canonical(const core::CoverageEngine& eng) {
  std::vector<CanonicalSet> out;
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    if (!eng.alive(j)) continue;
    std::vector<int> members(eng.members(j).begin(), eng.members(j).end());
    std::sort(members.begin(), members.end());
    out.emplace_back(eng.group(j), eng.session(j), eng.tx_rate(j), eng.cost(j),
                     std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CoverageEngine, ToEngineMirrorsSetSystem) {
  const auto sc = small_scenario(11);
  const auto sys = setcover::build_set_system(sc);
  const auto eng = setcover::to_engine(sys);

  ASSERT_EQ(eng.n_set_slots(), sys.n_sets());
  ASSERT_EQ(eng.n_live_sets(), sys.n_sets());
  ASSERT_EQ(eng.n_elements(), sys.n_elements());
  ASSERT_EQ(eng.n_groups(), sys.n_groups());
  for (int j = 0; j < sys.n_sets(); ++j) {
    const auto& s = sys.set(j);
    EXPECT_TRUE(eng.alive(j));
    EXPECT_EQ(eng.group(j), s.group);
    EXPECT_EQ(eng.session(j), s.session);
    EXPECT_EQ(eng.tx_rate(j), s.tx_rate);
    EXPECT_EQ(eng.cost(j), s.cost);
    std::vector<int> members(eng.members(j).begin(), eng.members(j).end());
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, s.members.to_indices());
  }
  EXPECT_EQ(eng.coverable(), sys.coverable());
  EXPECT_EQ(eng.max_set_cost(), sys.max_set_cost());
  EXPECT_EQ(eng.min_feasible_budget(), sys.min_feasible_budget());
}

TEST(CoverageEngine, BuildFullMatchesReductionThroughSetSystem) {
  for (uint64_t seed : {3u, 7u, 19u}) {
    const auto sc = small_scenario(seed);
    const auto via_sys = setcover::to_engine(setcover::build_set_system(sc));
    const auto direct = setcover::build_engine(sc);
    EXPECT_EQ(canonical(direct), canonical(via_sys)) << "seed " << seed;
    EXPECT_EQ(direct.coverable(), via_sys.coverable());
  }
}

TEST(CoverageEngine, InvertedIndexListsExactlyContainingSets) {
  const auto sc = small_scenario(23);
  const auto eng = setcover::build_engine(sc);
  for (int e = 0; e < eng.n_elements(); ++e) {
    std::vector<int> via_index;
    eng.for_each_set_of(e, [&](int j) { via_index.push_back(j); });
    std::sort(via_index.begin(), via_index.end());
    std::vector<int> via_scan;
    for (int j = 0; j < eng.n_set_slots(); ++j) {
      if (!eng.alive(j)) continue;
      const auto m = eng.members(j);
      if (std::find(m.begin(), m.end(), e) != m.end()) via_scan.push_back(j);
    }
    EXPECT_EQ(via_index, via_scan) << "element " << e;
  }
}

TEST(CoverageEngine, UpdateGroupsEqualsFreshRebuild) {
  const auto sc = small_scenario(31, 10, 40);
  auto state = ctrl::NetworkState::from_scenario(sc);
  util::Rng rng(5);

  core::CoverageEngine incremental;
  incremental.build_full(StateSource(state), true);

  for (int round = 0; round < 6; ++round) {
    const ctrl::NetworkState before = state;
    // A burst of churn: moves, zaps, a leave — whatever the rng picks.
    for (int k = 0; k < 5; ++k) {
      const int u = rng.next_int(state.n_slots());
      if (!state.slot(u).present) continue;
      switch (rng.next_int(3)) {
        case 0:
          state.apply(ctrl::Event::move(
              u, {rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)}));
          break;
        case 1:
          state.apply(ctrl::Event::subscribe(u, rng.next_int(state.n_sessions())));
          break;
        default:
          state.apply(ctrl::Event::unsubscribe(u));
          break;
      }
    }
    // Dirty groups: any AP in range of a changed slot, before or after.
    std::vector<int> dirty;
    for (int a = 0; a < state.n_aps(); ++a) {
      for (int s = 0; s < state.n_slots(); ++s) {
        if (before.slot(s) == state.slot(s)) continue;
        if (before.link_rate(a, s) > 0.0 || state.link_rate(a, s) > 0.0) {
          dirty.push_back(a);
          break;
        }
      }
    }
    incremental.update_groups(StateSource(state), dirty, true);

    core::CoverageEngine fresh;
    fresh.build_full(StateSource(state), true);
    ASSERT_EQ(canonical(incremental), canonical(fresh)) << "round " << round;
    ASSERT_EQ(incremental.coverable(), fresh.coverable()) << "round " << round;
    EXPECT_EQ(incremental.max_set_cost(), fresh.max_set_cost());
    EXPECT_EQ(incremental.min_feasible_budget(), fresh.min_feasible_budget());
  }
  EXPECT_EQ(incremental.stats().full_builds, 1u);
  EXPECT_EQ(incremental.stats().incremental_updates, 6u);
  EXPECT_GT(incremental.stats().groups_rebuilt, 0u);
}

TEST(CoverageEngine, UpdateGrowsUniverseOnJoins) {
  const auto sc = small_scenario(41);
  auto state = ctrl::NetworkState::from_scenario(sc);
  core::CoverageEngine eng;
  eng.build_full(StateSource(state), true);
  const int old_n = eng.n_elements();

  // New user joins in the middle of the area: slot space extends.
  state.apply(ctrl::Event::join(state.n_slots(), {200.0, 200.0}, 0));
  std::vector<int> dirty;
  const int slot = state.n_slots() - 1;
  for (int a = 0; a < state.n_aps(); ++a) {
    if (state.link_rate(a, slot) > 0.0) dirty.push_back(a);
  }
  ASSERT_FALSE(dirty.empty());
  eng.update_groups(StateSource(state), dirty, true);

  EXPECT_EQ(eng.n_elements(), old_n + 1);
  EXPECT_TRUE(eng.coverable().test(slot));
  core::CoverageEngine fresh;
  fresh.build_full(StateSource(state), true);
  EXPECT_EQ(canonical(eng), canonical(fresh));

  // The overflow inverted index covers the new element too.
  int containing = 0;
  eng.for_each_set_of(slot, [&](int) { ++containing; });
  EXPECT_GT(containing, 0);
}

TEST(CoverageEngine, CompactionPreservesSemantics) {
  const auto sc = small_scenario(53, 6, 24);
  auto state = ctrl::NetworkState::from_scenario(sc);
  core::CoverageEngine eng;
  eng.build_full(StateSource(state), true);

  // Rebuild every group many times: tombstones pile up until compaction.
  std::vector<int> all_groups;
  for (int a = 0; a < state.n_aps(); ++a) all_groups.push_back(a);
  for (int i = 0; i < 8; ++i) {
    eng.update_groups(StateSource(state), all_groups, true);
  }
  EXPECT_GT(eng.stats().compactions, 0u);

  core::CoverageEngine fresh;
  fresh.build_full(StateSource(state), true);
  EXPECT_EQ(canonical(eng), canonical(fresh));

  // Explicit compaction is idempotent on a clean engine.
  eng.compact();
  EXPECT_EQ(canonical(eng), canonical(fresh));
  EXPECT_EQ(eng.n_set_slots(), eng.n_live_sets());
}

TEST(CoverageEngine, WarmWorkspaceSolvesAreIdentical) {
  const auto sc = small_scenario(61, 12, 50);
  auto eng = setcover::build_engine(sc);
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
