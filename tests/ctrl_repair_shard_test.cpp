// Sharded incremental repair (ctrl/repair_shard.hpp) and the wlan::LoadModel
// it runs on: partition edge cases (empty dirty set, all-dirty, one
// mega-component), the bitwise thread-invariance contract, the model's
// exactness against ap_load_for_members, the signaling-cap rollback on a
// sharded merged result, and a digest pinning every repair decision.
#include "wmcast/ctrl/repair_shard.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "pinned_starts.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/association.hpp"
#include "wmcast/wlan/load_model.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::ctrl {
namespace {

wlan::Scenario random_scenario(uint64_t seed, int n_aps = 12, int n_users = 48,
                               double area = 400.0) {
  util::Rng rng(seed);
  wlan::GeneratorParams gp;
  gp.n_aps = n_aps;
  gp.n_users = n_users;
  gp.n_sessions = 3;
  gp.area_side_m = area;
  return wlan::generate_scenario(gp, rng);
}

/// A feasible starting association plus its members-by-AP mirror.
struct Carried {
  std::vector<int> user_ap;
  std::vector<std::vector<int>> members;
};

Carried carried_from_solve(const wlan::Scenario& sc, uint64_t seed) {
  util::Rng rng(seed);
  const auto sol = assoc::solve_by_name("mla-c", sc, rng, {});
  Carried c;
  c.user_ap = sol.assoc.user_ap;
  c.members.resize(static_cast<size_t>(sc.n_aps()));
  for (int u = 0; u < sc.n_users(); ++u) {
    const int a = c.user_ap[static_cast<size_t>(u)];
    if (a != wlan::kNoAp) c.members[static_cast<size_t>(a)].push_back(u);
  }
  return c;
}

void expect_consistent(const wlan::Scenario& sc, const Carried& c) {
  std::vector<int> from_members(c.user_ap.size(), wlan::kNoAp);
  for (int a = 0; a < sc.n_aps(); ++a) {
    for (const int u : c.members[static_cast<size_t>(a)]) {
      EXPECT_EQ(from_members[static_cast<size_t>(u)], wlan::kNoAp)
          << "user " << u << " listed under two APs";
      from_members[static_cast<size_t>(u)] = a;
    }
  }
  EXPECT_EQ(from_members, c.user_ap);
}

TEST(LoadModel, MatchesApLoadForMembersExactly) {
  const auto sc = random_scenario(11);
  const auto c = carried_from_solve(sc, 12);
  for (const bool multi_rate : {true, false}) {
    wlan::LoadModel model;
    model.reset(sc, multi_rate);
    model.begin_scope();
    for (int a = 0; a < sc.n_aps(); ++a) {
      for (const int u : c.members[static_cast<size_t>(a)]) {
        model.add(a, sc.user_session(u), sc.link_rate(a, u));
      }
    }
    for (int a = 0; a < sc.n_aps(); ++a) {
      const double expected = wlan::ap_load_for_members(
          sc, a, c.members[static_cast<size_t>(a)], multi_rate);
      EXPECT_EQ(model.load(a), expected) << "ap " << a << " multi_rate " << multi_rate;
    }
  }
}

TEST(LoadModel, ProbesMatchPhysicalAddRemove) {
  const auto sc = random_scenario(21);
  const auto c = carried_from_solve(sc, 22);
  wlan::LoadModel model;
  model.reset(sc, /*multi_rate=*/true);
  model.begin_scope();
  for (int a = 0; a < sc.n_aps(); ++a) {
    for (const int u : c.members[static_cast<size_t>(a)])
      model.add(a, sc.user_session(u), sc.link_rate(a, u));
  }
  for (int u = 0; u < sc.n_users(); ++u) {
    const int cur = c.user_ap[static_cast<size_t>(u)];
    const int s = sc.user_session(u);
    const wlan::IndexSpan heard = sc.aps_of_user(u);
    const wlan::RateSpan rates = sc.rates_of_user(u);
    for (size_t i = 0; i < heard.size(); ++i) {
      const int a = heard[i];
      if (a == cur) {
        const double probe = model.load_without(a, s, rates[i]);
        const double physical = model.remove(a, s, rates[i]);
        EXPECT_EQ(probe, physical);
        model.add(a, s, rates[i]);
      } else {
        const double probe = model.load_with(a, s, rates[i]);
        const double physical = model.add(a, s, rates[i]);
        EXPECT_EQ(probe, physical);
        model.remove(a, s, rates[i]);
      }
    }
  }
}

TEST(RepairShard, EmptyDirtySetIsNoOp) {
  const auto sc = random_scenario(31);
  auto c = carried_from_solve(sc, 32);
  const auto before = c;

  util::ThreadPool pool(2);
  std::vector<RepairLaneWorkspace> lanes;
  RepairShardStats stats;
  repair_sharded(sc, c.user_ap, c.members, /*movable_rows=*/{}, RepairShardParams{},
                 pool, lanes, &stats);

  EXPECT_EQ(c.user_ap, before.user_ap);
  EXPECT_EQ(c.members, before.members);
  EXPECT_EQ(stats.shards, 0);
  EXPECT_EQ(stats.movers, 0);
}

TEST(RepairShard, AllDirtyIsThreadInvariant) {
  // Every user movable degenerates the repair into a full greedy re-place;
  // the result must still be bitwise identical at any pool size, and the
  // stats (partition fixed before dispatch) must not change either.
  const auto sc = random_scenario(41, /*n_aps=*/16, /*n_users=*/80);
  const auto base = carried_from_solve(sc, 42);
  std::vector<int> all;
  for (int u = 0; u < sc.n_users(); ++u) all.push_back(u);

  std::vector<Carried> results;
  std::vector<RepairShardStats> stats;
  for (const int threads : {1, 4}) {
    auto c = base;
    util::ThreadPool pool(threads);
    std::vector<RepairLaneWorkspace> lanes;
    RepairShardStats st;
    repair_sharded(sc, c.user_ap, c.members, all, RepairShardParams{}, pool, lanes, &st);
    expect_consistent(sc, c);
    results.push_back(std::move(c));
    stats.push_back(st);
  }
  EXPECT_EQ(results[0].user_ap, results[1].user_ap);
  EXPECT_EQ(results[0].members, results[1].members);
  EXPECT_EQ(stats[0].shards, stats[1].shards);
  EXPECT_EQ(stats[0].movers, stats[1].movers);
  EXPECT_EQ(stats[0].imbalance, stats[1].imbalance);
  EXPECT_EQ(stats[0].movers, sc.n_users());

  // Every placed user must be on an AP it actually hears.
  for (int u = 0; u < sc.n_users(); ++u) {
    const int a = results[0].user_ap[static_cast<size_t>(u)];
    if (a == wlan::kNoAp) continue;
    EXPECT_GT(sc.link_rate(a, u), 0.0) << "user " << u << " placed out of range";
  }
}

TEST(RepairShard, DenseScenarioCollapsesToOneMegaComponent) {
  // A tiny area makes every user hear every AP: the union-find closure must
  // fuse the whole network into a single repair task spanning all APs.
  const auto sc = random_scenario(51, /*n_aps=*/8, /*n_users=*/32, /*area=*/60.0);
  for (int u = 0; u < sc.n_users(); ++u) {
    ASSERT_EQ(sc.aps_of_user(u).size(), static_cast<size_t>(sc.n_aps()))
        << "scenario not dense enough for the test premise";
  }
  auto c = carried_from_solve(sc, 52);
  std::vector<int> all;
  for (int u = 0; u < sc.n_users(); ++u) all.push_back(u);

  util::ThreadPool pool(4);
  std::vector<RepairLaneWorkspace> lanes;
  RepairShardStats stats;
  repair_sharded(sc, c.user_ap, c.members, all, RepairShardParams{}, pool, lanes, &stats);
  expect_consistent(sc, c);
  EXPECT_EQ(stats.shards, 1);
  EXPECT_EQ(stats.movers, sc.n_users());
  EXPECT_EQ(stats.imbalance, 1.0);
}

TEST(RepairShard, DecisionsArePinned) {
  // The repair's decisions are part of the contract: the digest pins every
  // committed placement, member-list order and stat, so a change to the
  // partition, the peel, the greedy re-place or the polish must reproduce
  // them exactly. Starts are over budget, so the peel evicts; a fifth of the
  // users are movable and half of those start unplaced, as users whose
  // carried AP went out of range do in the controller.
  const auto starts = test::over_budget_starts();
  int over = 0;
  test::Fnv1a h;
  for (size_t i = 0; i < starts.size(); ++i) {
    const auto& s = starts[i];
    over += test::over_budget_aps(s);
    Carried base;
    base.user_ap = s.start.user_ap;
    base.members.resize(static_cast<size_t>(s.sc.n_aps()));
    std::vector<int> movable;
    util::Rng pick(8100 + i);
    for (int u = 0; u < s.sc.n_users(); ++u) {
      if (!pick.next_bool(0.2)) continue;
      movable.push_back(u);
      if (movable.size() % 2 == 0) base.user_ap[static_cast<size_t>(u)] = wlan::kNoAp;
    }
    for (int u = 0; u < s.sc.n_users(); ++u) {
      const int a = base.user_ap[static_cast<size_t>(u)];
      if (a != wlan::kNoAp) base.members[static_cast<size_t>(a)].push_back(u);
    }
    for (const int threads : {1, 4}) {
      util::ThreadPool pool(threads);
      std::vector<RepairLaneWorkspace> lanes;
      for (const bool polish : {true, false}) {
        for (const double min_gain : {0.0, 0.02}) {
          RepairShardParams rp;
          rp.polish = polish;
          rp.polish_min_gain = min_gain;
          auto c = base;
          RepairShardStats st;
          repair_sharded(s.sc, c.user_ap, c.members, movable, rp, pool, lanes, &st);
          h.add(c.user_ap);
          for (const auto& m : c.members) h.add(m);
          h.add(st.shards);
          h.add(st.movers);
          h.add(st.imbalance);
        }
      }
    }
  }
  ASSERT_GT(over, 0) << "no start is over budget; the peel is not exercised";
  EXPECT_EQ(h.value(), 0x3b14bdfcd3a03a2dull) << std::hex << "0x" << h.value();
}

TEST(RepairShard, ControllerThreadInvarianceOverChurn) {
  // End-to-end: the controller's sharded repair must commit identical
  // associations at threads=1 and threads=4 across a churn trace, and the
  // repair telemetry (thread-invariant by contract) must match too.
  const auto sc = random_scenario(61, /*n_aps=*/16, /*n_users=*/80);
  const auto initial = NetworkState::from_scenario(sc);
  util::Rng rng(62);
  TraceParams tp;
  tp.epochs = 6;
  tp.move_fraction = 0.2;
  tp.walk_sigma_m = 40.0;
  const auto trace = generate_churn_trace(initial, tp, rng);

  ControllerConfig cfg1;
  cfg1.threads = 1;
  ControllerConfig cfg4;
  cfg4.threads = 4;
  AssociationController a(sc, cfg1);
  AssociationController b(sc, cfg4);
  for (const auto& epoch : trace.epochs) {
    a.submit(epoch);
    b.submit(epoch);
    a.drain();
    b.drain();
    ASSERT_EQ(a.slot_ap(), b.slot_ap());
  }
  EXPECT_EQ(a.telemetry().engine_parallel_repair_calls.value(),
            b.telemetry().engine_parallel_repair_calls.value());
  EXPECT_EQ(a.telemetry().engine_parallel_repair_shards.value(),
            b.telemetry().engine_parallel_repair_shards.value());
  EXPECT_EQ(a.telemetry().engine_parallel_repair_imbalance.value(),
            b.telemetry().engine_parallel_repair_imbalance.value());
  EXPECT_GT(a.telemetry().engine_parallel_repair_calls.value(), 0u);
}

TEST(RepairShard, SignalingCapRollsBackMergedResult) {
  // The rollback decision is evaluated on the merged sharded result: with the
  // cap at zero a mobility burst that would trigger voluntary handoffs must
  // roll back to the carried association, identically at any thread count.
  const auto sc = random_scenario(71, /*n_aps=*/16, /*n_users=*/80);
  TraceParams tp;
  tp.epochs = 4;
  tp.move_fraction = 0.5;
  tp.walk_sigma_m = 80.0;
  util::Rng rng(72);
  const auto trace = generate_churn_trace(NetworkState::from_scenario(sc), tp, rng);

  uint64_t rollbacks = 0;
  std::vector<std::vector<int>> committed;
  for (const int threads : {1, 4}) {
    ControllerConfig cfg;
    cfg.threads = threads;
    cfg.max_reassoc_per_epoch = 0;
    AssociationController c(sc, cfg);
    for (const auto& epoch : trace.epochs) {
      c.submit(epoch);
      c.drain();
    }
    if (threads == 1) rollbacks = c.telemetry().rollbacks.value();
    EXPECT_EQ(c.telemetry().rollbacks.value(), rollbacks);
    committed.push_back(c.slot_ap());
  }
  EXPECT_EQ(committed[0], committed[1]);
  EXPECT_GT(rollbacks, 0u) << "trace never tripped the cap; the test premise failed";
}

}  // namespace
}  // namespace wmcast::ctrl
