// Differential tests for the sparse scenario pipeline (DESIGN.md §11): the
// grid-indexed CSR build (Scenario::from_geometry) must be indistinguishable
// from the dense-matrix reference build (from_geometry_dense) on random
// geometric instances, at any thread count, and across incremental rebuilds
// (apply_delta). Plus the grid's geometric edge cases: users on cell
// boundaries, APs at exactly the maximum coverage range, users out of range
// of everything.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::wlan {
namespace {

// Full observable-state comparison: per-user rows (order included), rates,
// strongest AP, transpose rows, level histogram, scalars.
void expect_identical(const Scenario& a, const Scenario& b) {
  ASSERT_EQ(a.n_aps(), b.n_aps());
  ASSERT_EQ(a.n_users(), b.n_users());
  ASSERT_EQ(a.n_sessions(), b.n_sessions());
  ASSERT_EQ(a.n_links(), b.n_links());
  EXPECT_EQ(a.n_coverable_users(), b.n_coverable_users());
  EXPECT_EQ(a.basic_rate(), b.basic_rate());
  EXPECT_EQ(a.rate_levels(), b.rate_levels());
  EXPECT_EQ(a.rate_level_counts(), b.rate_level_counts());
  for (int u = 0; u < a.n_users(); ++u) {
    ASSERT_EQ(a.aps_of_user(u), b.aps_of_user(u)) << "user " << u;
    EXPECT_EQ(a.strongest_ap(u), b.strongest_ap(u)) << "user " << u;
    const size_t k = a.aps_of_user(u).size();
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(a.rates_of_user(u)[i], b.rates_of_user(u)[i]) << "user " << u;
    }
  }
  for (int ap = 0; ap < a.n_aps(); ++ap) {
    ASSERT_EQ(a.users_of_ap(ap), b.users_of_ap(ap)) << "ap " << ap;
    const size_t k = a.users_of_ap(ap).size();
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(a.rates_of_ap(ap)[i], b.rates_of_ap(ap)[i]) << "ap " << ap;
    }
  }
}

struct RandomInstance {
  std::vector<Point> ap_pos;
  std::vector<Point> user_pos;
  std::vector<int> user_session;
  std::vector<double> session_rates;
};

// Sized so coverage is mixed: dense clusters, isolated users, and (at the
// larger sides) users out of range of every AP.
RandomInstance draw(util::Rng& rng) {
  RandomInstance in;
  const int n_aps = 1 + rng.next_int(30);
  const int n_users = 1 + rng.next_int(80);
  const int n_sessions = 1 + rng.next_int(5);
  const double side = 100.0 + rng.uniform(0.0, 2400.0);
  in.ap_pos.resize(static_cast<size_t>(n_aps));
  for (auto& p : in.ap_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  in.user_pos.resize(static_cast<size_t>(n_users));
  for (auto& p : in.user_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  in.user_session.resize(static_cast<size_t>(n_users));
  for (auto& s : in.user_session) s = rng.next_int(n_sessions);
  in.session_rates.assign(static_cast<size_t>(n_sessions), 1.0);
  return in;
}

TEST(SparseScenarioTest, MatchesDenseReferenceOnRandomInstances) {
  const RateTable table = RateTable::ieee80211a();
  util::Rng rng(907);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    const RandomInstance in = draw(rng);
    const auto sparse = Scenario::from_geometry(in.ap_pos, in.user_pos,
                                                in.user_session, in.session_rates,
                                                table);
    const auto dense = Scenario::from_geometry_dense(
        in.ap_pos, in.user_pos, in.user_session, in.session_rates, table);
    expect_identical(sparse, dense);
    // link_rate's row scan against the dense pairwise answer.
    for (int a = 0; a < sparse.n_aps(); ++a) {
      for (int u = 0; u < sparse.n_users(); ++u) {
        EXPECT_EQ(sparse.link_rate(a, u),
                  table.rate_for_distance(distance(
                      in.ap_pos[static_cast<size_t>(a)],
                      in.user_pos[static_cast<size_t>(u)])))
            << a << "," << u;
      }
    }
  }
}

TEST(SparseScenarioTest, SolverOutputsAgreeWithDenseReference) {
  const RateTable table = RateTable::ieee80211a();
  util::Rng rng(911);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    const RandomInstance in = draw(rng);
    const auto sparse = Scenario::from_geometry(in.ap_pos, in.user_pos,
                                                in.user_session, in.session_rates,
                                                table);
    const auto dense = Scenario::from_geometry_dense(
        in.ap_pos, in.user_pos, in.user_session, in.session_rates, table);
    const auto a = assoc::centralized_mla(sparse);
    const auto b = assoc::centralized_mla(dense);
    EXPECT_EQ(a.assoc, b.assoc);
    EXPECT_EQ(a.loads.total_load, b.loads.total_load);
  }
}

TEST(SparseScenarioTest, ParallelBuildIsBitIdenticalToSerial) {
  const RateTable table = RateTable::ieee80211a();
  util::Rng rng(919);
  util::ThreadPool pool3(3);
  util::ThreadPool pool7(7);
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE(trial);
    const RandomInstance in = draw(rng);
    const auto serial = Scenario::from_geometry(in.ap_pos, in.user_pos,
                                                in.user_session, in.session_rates,
                                                table);
    for (util::ThreadPool* pool : {&pool3, &pool7}) {
      const auto parallel =
          Scenario::from_geometry(in.ap_pos, in.user_pos, in.user_session,
                                  in.session_rates, table, 0.9, pool);
      expect_identical(serial, parallel);
    }
  }
}

TEST(SparseScenarioTest, ActiveMaskEmptiesExactlyTheMaskedRows) {
  const RateTable table = RateTable::ieee80211a();
  util::Rng rng(929);
  util::ThreadPool pool4(4);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    const RandomInstance in = draw(rng);
    std::vector<char> active(in.user_pos.size());
    for (auto& m : active) m = rng.next_int(3) != 0 ? 1 : 0;
    const auto full = Scenario::from_geometry(in.ap_pos, in.user_pos, in.user_session,
                                              in.session_rates, table);
    const auto masked =
        Scenario::from_geometry(in.ap_pos, in.user_pos, in.user_session,
                                in.session_rates, table, 0.9, nullptr, &active);
    ASSERT_EQ(masked.n_users(), full.n_users());

    int64_t masked_links = 0;
    int masked_coverable = 0;
    std::vector<int64_t> level_counts = full.rate_level_counts();
    for (int u = 0; u < full.n_users(); ++u) {
      EXPECT_EQ(masked.user_session(u), full.user_session(u));
      const IndexSpan aps = full.aps_of_user(u);
      if (active[static_cast<size_t>(u)]) {
        ASSERT_EQ(masked.aps_of_user(u), aps) << "user " << u;
        for (size_t i = 0; i < aps.size(); ++i) {
          EXPECT_EQ(masked.rates_of_user(u).level(i), full.rates_of_user(u).level(i));
        }
        continue;
      }
      EXPECT_TRUE(masked.aps_of_user(u).empty()) << "user " << u;
      EXPECT_EQ(masked.strongest_ap(u), kNoAp);
      masked_links += static_cast<int64_t>(aps.size());
      if (!aps.empty()) ++masked_coverable;
      for (size_t i = 0; i < aps.size(); ++i) {
        --level_counts[static_cast<size_t>(full.rates_of_user(u).level(i))];
      }
    }
    EXPECT_EQ(masked.n_links(), full.n_links() - masked_links);
    EXPECT_EQ(masked.n_coverable_users(), full.n_coverable_users() - masked_coverable);
    EXPECT_EQ(masked.rate_level_counts(), level_counts);

    // The transpose is the unmasked one without the masked-out users.
    for (int a = 0; a < full.n_aps(); ++a) {
      std::vector<int> users;
      std::vector<int> levels;
      const IndexSpan all = full.users_of_ap(a);
      for (size_t i = 0; i < all.size(); ++i) {
        if (!active[static_cast<size_t>(all[i])]) continue;
        users.push_back(all[i]);
        levels.push_back(full.rates_of_ap(a).level(i));
      }
      ASSERT_EQ(masked.users_of_ap(a), users) << "ap " << a;
      for (size_t i = 0; i < users.size(); ++i) {
        EXPECT_EQ(masked.rates_of_ap(a).level(i), levels[i]) << "ap " << a;
      }
    }

    const auto parallel =
        Scenario::from_geometry(in.ap_pos, in.user_pos, in.user_session,
                                in.session_rates, table, 0.9, &pool4, &active);
    expect_identical(masked, parallel);
  }

  const std::vector<char> wrong_size(1, 1);
  EXPECT_THROW(Scenario::from_geometry({{0.0, 0.0}}, {{1.0, 1.0}, {2.0, 2.0}}, {0, 0},
                                       {1.0}, table, 0.9, nullptr, &wrong_size),
               std::invalid_argument);
}

TEST(SparseScenarioTest, ApExactlyAtMaxRangeIsInRange) {
  const RateTable table = RateTable::ieee80211a();
  const double r = table.range_m();
  // AP 0 exactly at the coverage radius, AP 1 just beyond, AP 2 at a cell
  // corner distance away (same cell-boundary geometry the grid must cover).
  const std::vector<Point> aps = {{r, 0.0}, {r + 1e-9, 100.0}, {r, r}};
  const std::vector<Point> users = {{0.0, 0.0}};
  const auto sc = Scenario::from_geometry(aps, users, {0}, {1.0}, table);
  EXPECT_EQ(sc.link_rate(0, 0), table.basic_rate());  // d == r: in range (<=)
  EXPECT_EQ(sc.link_rate(1, 0), 0.0);
  EXPECT_EQ(sc.link_rate(2, 0), 0.0);  // d = r*sqrt(2) > r
  const auto dense = Scenario::from_geometry_dense(aps, users, {0}, {1.0}, table);
  expect_identical(sc, dense);
}

TEST(SparseScenarioTest, UserOnCellBoundariesSeesAllInRangeAps) {
  const RateTable table = RateTable::ieee80211a();
  const double cell = table.range_m();  // grid cell size == coverage radius
  // APs spread around the (cell, cell) grid corner, one per quadrant plus the
  // corner itself; the user sits exactly on the corner, the worst case for a
  // floor()-based cell assignment.
  const std::vector<Point> aps = {{cell, cell},
                                  {cell - 50.0, cell - 50.0},
                                  {cell + 50.0, cell - 50.0},
                                  {cell - 50.0, cell + 50.0},
                                  {cell + 50.0, cell + 50.0},
                                  {0.0, 0.0}};
  for (const Point user : {Point{cell, cell}, Point{2.0 * cell, cell},
                           Point{cell, 0.0}, Point{0.0, 0.0}}) {
    SCOPED_TRACE(user.x);
    SCOPED_TRACE(user.y);
    const auto sparse =
        Scenario::from_geometry(aps, {user}, {0}, {1.0}, table);
    const auto dense =
        Scenario::from_geometry_dense(aps, {user}, {0}, {1.0}, table);
    expect_identical(sparse, dense);
  }
}

TEST(SparseScenarioTest, UserOutOfRangeOfEverythingHasEmptyRow) {
  const RateTable table = RateTable::ieee80211a();
  const double r = table.range_m();
  const std::vector<Point> aps = {{0.0, 0.0}, {100.0, 0.0}};
  const std::vector<Point> users = {{50.0, 0.0}, {50.0 + 20.0 * r, 0.0}};
  const auto sc = Scenario::from_geometry(aps, users, {0, 0}, {1.0}, table);
  EXPECT_EQ(sc.aps_of_user(0).size(), 2u);
  EXPECT_TRUE(sc.aps_of_user(1).empty());
  EXPECT_EQ(sc.strongest_ap(1), kNoAp);
  EXPECT_EQ(sc.n_coverable_users(), 1);
  expect_identical(sc, Scenario::from_geometry_dense(aps, users, {0, 0}, {1.0}, table));
}

TEST(SparseScenarioTest, ApplyDeltaMatchesFullRebuild) {
  const RateTable table = RateTable::ieee80211a();
  util::Rng rng(929);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    RandomInstance in = draw(rng);
    const int n_users = static_cast<int>(in.user_pos.size());
    const int n_sessions = static_cast<int>(in.session_rates.size());
    const auto base = Scenario::from_geometry(in.ap_pos, in.user_pos,
                                              in.user_session, in.session_rates,
                                              table);

    ScenarioDelta delta;
    for (int u = 0; u < n_users; ++u) {
      if (rng.next_bool(0.25)) {
        const Point p{rng.uniform(0.0, 2500.0), rng.uniform(0.0, 2500.0)};
        delta.moved.push_back({u, p});
        in.user_pos[static_cast<size_t>(u)] = p;
      }
      if (n_sessions > 1 && rng.next_bool(0.15)) {
        const int s = rng.next_int(n_sessions);
        delta.rezapped.push_back({u, s});
        in.user_session[static_cast<size_t>(u)] = s;
      }
    }

    std::vector<int> dirty;
    const auto patched = base.apply_delta(delta, &dirty);
    const auto rebuilt = Scenario::from_geometry(in.ap_pos, in.user_pos,
                                                 in.user_session, in.session_rates,
                                                 table);
    expect_identical(patched, rebuilt);

    EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
    EXPECT_TRUE(std::adjacent_find(dirty.begin(), dirty.end()) == dirty.end());
    // Soundness: every AP whose member row differs between base and rebuilt
    // must be in the dirty set (the set may legitimately be larger — e.g. a
    // rezap marks its APs even when the membership multiset ends up equal).
    std::vector<char> is_dirty(static_cast<size_t>(base.n_aps()), 0);
    for (const int a : dirty) {
      ASSERT_GE(a, 0);
      ASSERT_LT(a, base.n_aps());
      is_dirty[static_cast<size_t>(a)] = 1;
    }
    for (int a = 0; a < base.n_aps(); ++a) {
      if (base.users_of_ap(a) == rebuilt.users_of_ap(a)) continue;
      EXPECT_TRUE(is_dirty[static_cast<size_t>(a)]) << "ap " << a;
    }
  }
}

TEST(SparseScenarioTest, MemoryBytesScalesWithLinksNotAps) {
  const RateTable table = RateTable::ieee80211a();
  util::Rng rng(937);
  // Same users and link structure, 10x the APs (all the extra ones far away):
  // CSR memory must grow only by the per-AP offsets, not by users x APs.
  const double side = 500.0;
  std::vector<Point> aps(4);
  for (auto& p : aps) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  std::vector<Point> users(200);
  for (auto& p : users) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  const std::vector<int> sessions(users.size(), 0);

  const auto small = Scenario::from_geometry(aps, users, sessions, {1.0}, table);
  std::vector<Point> many_aps = aps;
  for (int k = 0; k < 36; ++k) {
    many_aps.push_back({side + 50.0 * table.range_m() + 1000.0 * k, 0.0});
  }
  const auto large = Scenario::from_geometry(many_aps, users, sessions, {1.0}, table);
  ASSERT_EQ(small.n_links(), large.n_links());
  // 36 extra empty APs cost one transpose offset each (8 bytes) plus grid
  // cells — far below the dense matrix's 200 users * 36 APs * 8 bytes.
  EXPECT_LT(large.memory_bytes() - small.memory_bytes(),
            static_cast<size_t>(200) * 36 * 8 / 2);
}

TEST(SparseScenarioTest, MemoryBytesIsTenBytesPerLink) {
  // A link is a 4-byte AP id and a one-byte rate level in its user's row,
  // and a 4-byte user id and the same byte in its AP's transpose row. The
  // rest is per user (session, row offset, position), per AP (transpose
  // offset, position), per session (stream rate) and per level (rate and
  // link count).
  const RateTable table = RateTable::ieee80211a();
  util::Rng rng(907);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    const RandomInstance in = draw(rng);
    const auto sc = Scenario::from_geometry(in.ap_pos, in.user_pos, in.user_session,
                                            in.session_rates, table);
    const auto users = static_cast<size_t>(sc.n_users());
    const auto aps = static_cast<size_t>(sc.n_aps());
    const size_t per_user =
        users * (sizeof(int) + sizeof(int64_t) + sizeof(Point)) + sizeof(int64_t);
    const size_t per_ap = aps * (sizeof(int64_t) + sizeof(Point)) + sizeof(int64_t);
    const size_t per_session = static_cast<size_t>(sc.n_sessions()) * sizeof(double);
    const size_t per_level = sc.rate_levels().size() * (sizeof(double) + sizeof(int64_t));
    EXPECT_EQ(sc.memory_bytes() - per_user - per_ap - per_session - per_level,
              10 * static_cast<size_t>(sc.n_links()));
  }
}

TEST(SparseScenarioTest, RateTableOfMoreThan256StepsThrows) {
  // A link stores its rate level in one byte: a 256-step table fits.
  const auto staircase = [](int n) {
    std::vector<RateStep> steps;
    for (int i = 0; i < n; ++i) steps.push_back({1.0 + n - i, 1.0 + i});
    return RateTable(std::move(steps));
  };
  const std::vector<Point> aps = {{0.0, 0.0}};
  const std::vector<Point> users = {{100.5, 0.0}, {300.0, 0.0}};
  const RateTable fits = staircase(256);
  const auto sc = Scenario::from_geometry(aps, users, {0, 0}, {1.0}, fits);
  EXPECT_EQ(sc.rate_levels().size(), 256u);
  EXPECT_EQ(sc.link_rate(0, 0), fits.rate_for_distance(100.5));
  EXPECT_EQ(sc.link_rate(0, 1), 0.0);
  EXPECT_THROW(Scenario::from_geometry(aps, users, {0, 0}, {1.0}, staircase(257)),
               std::invalid_argument);
}

TEST(SparseScenarioTest, ExtremeExtentThrowsInsteadOfExhaustingMemory) {
  // Two points 1e7 m apart on each axis span 50,001^2 cells of one radio
  // range: about 10 GB of cell offsets, far past the grid's cell cap.
  const RateTable table = RateTable::ieee80211a();
  const std::vector<Point> aps = {{0.0, 0.0}, {1e7, 1e7}};
  EXPECT_THROW(GridIndex(aps, table.range_m()), std::invalid_argument);
  EXPECT_THROW(Scenario::from_geometry(aps, {{0.0, 0.0}}, {0}, {1.0}, table),
               std::invalid_argument);
  // Past INT_MAX cells the counts no longer fit an int at all.
  EXPECT_THROW(GridIndex({{0.0, 0.0}, {1e12, 1e12}}, table.range_m()),
               std::invalid_argument);
  // A far query point against a small grid clamps to the edge cells, and a
  // NaN one to cell 0; neither reads outside the grid.
  const GridIndex grid({{0.0, 0.0}, {500.0, 500.0}}, table.range_m());
  int found = 0;
  grid.for_each_candidate({1e15, -1e15}, table.range_m(), [&](int) { ++found; });
  EXPECT_EQ(found, 0);
  EXPECT_EQ(grid.cell_key({1e15, 1e15}), grid.cell_key({500.0, 500.0}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(grid.cell_key({nan, nan}), grid.cell_key({0.0, 0.0}));
  // A user at a non-finite position is rejected by every geometric build,
  // as apply_delta rejects a move to one.
  const std::vector<Point> two_aps = {{0.0, 0.0}, {300.0, 300.0}};
  for (const Point bad : {Point{nan, 10.0}, Point{5.0, HUGE_VAL}}) {
    EXPECT_THROW(Scenario::from_geometry(two_aps, {bad, {5.0, 5.0}}, {0, 0}, {1.0}, table),
                 std::invalid_argument);
    EXPECT_THROW(
        Scenario::from_geometry_dense(two_aps, {bad, {5.0, 5.0}}, {0, 0}, {1.0}, table),
        std::invalid_argument);
  }
}

}  // namespace
}  // namespace wmcast::wlan
