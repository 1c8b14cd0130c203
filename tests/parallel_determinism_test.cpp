// Determinism contract of the parallel execution layer (DESIGN.md §9): every
// parallel entry point must produce bitwise-identical results at any thread
// count, the serial sweep must match the historical fork-inside-the-loop
// harness stream for stream, and the sharded MLA greedy must commit the same
// association as the joint serial solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/core/engine.hpp"
#include "wmcast/core/parallel.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/setcover/materialize.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast {
namespace {

wlan::Scenario test_scenario(uint64_t seed, int n_aps = 40, int n_users = 120,
                             int n_sessions = 5) {
  wlan::GeneratorParams p;
  p.n_aps = n_aps;
  p.n_users = n_users;
  p.n_sessions = n_sessions;
  p.area_side_m = 600.0;
  util::Rng rng(seed);
  return wlan::generate_scenario(p, rng);
}

std::vector<bench::Algo> sweep_algos() {
  return {
      {"MLA-C",
       [](const wlan::Scenario& sc, util::Rng&) {
         return assoc::centralized_mla(sc).loads.total_load;
       }},
      {"noise",  // consumes its rng stream, so stream assignment matters
       [](const wlan::Scenario& sc, util::Rng& rng) {
         return rng.next_double() + sc.n_users();
       }},
  };
}

// --- Sweep harness ----------------------------------------------------------

TEST(ParallelDeterminism, SweepPointIdenticalAtAnyThreadCount) {
  wlan::GeneratorParams p;
  p.n_aps = 30;
  p.n_users = 90;
  const auto algos = sweep_algos();
  const auto serial = bench::sweep_point(p, 12, 42, algos);
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    const auto par = bench::sweep_point(p, 12, 42, algos, &pool);
    ASSERT_EQ(par.size(), serial.size()) << threads << " threads";
    for (size_t a = 0; a < serial.size(); ++a) {
      // Bitwise equality: same streams, same scenarios, same reduction order.
      EXPECT_EQ(par[a].min, serial[a].min) << threads << " threads, algo " << a;
      EXPECT_EQ(par[a].avg, serial[a].avg) << threads << " threads, algo " << a;
      EXPECT_EQ(par[a].max, serial[a].max) << threads << " threads, algo " << a;
    }
  }
}

TEST(ParallelDeterminism, SweepPointMatchesHistoricalForkOrder) {
  // The pre-drawn-streams sweep must reproduce the original serial harness,
  // which forked the master *inside* the loop: scenario fork, then one fork
  // per algorithm. A regression here silently changes every figure bench.
  wlan::GeneratorParams p;
  p.n_aps = 30;
  p.n_users = 90;
  const auto algos = sweep_algos();
  const uint64_t seed = 1234;
  const int n_scenarios = 10;

  std::vector<util::RunningStat> stats(algos.size());
  util::Rng master(seed);
  for (int s = 0; s < n_scenarios; ++s) {
    util::Rng scenario_rng = master.fork();
    const auto sc = wlan::generate_scenario(p, scenario_rng);
    for (size_t a = 0; a < algos.size(); ++a) {
      util::Rng algo_rng = master.fork();
      stats[a].add(algos[a].metric(sc, algo_rng));
    }
  }

  const auto sums = bench::sweep_point(p, n_scenarios, seed, algos);
  ASSERT_EQ(sums.size(), stats.size());
  for (size_t a = 0; a < stats.size(); ++a) {
    const auto legacy = util::summarize(stats[a]);
    EXPECT_EQ(sums[a].min, legacy.min) << "algo " << a;
    EXPECT_EQ(sums[a].avg, legacy.avg) << "algo " << a;
    EXPECT_EQ(sums[a].max, legacy.max) << "algo " << a;
  }
}

// --- Sharded solver entry points --------------------------------------------

class ShardedSolvers : public ::testing::Test {
 protected:
  void SetUp() override {
    sc_ = test_scenario(7);
    setcover::build_engine(sc_, true, eng_);
    shards_.build(eng_);
  }

  wlan::Scenario sc_ = test_scenario(7);
  core::CoverageEngine eng_;
  core::SessionShards shards_;
};

TEST_F(ShardedSolvers, ShardsPartitionTheCoverableUniverse) {
  util::DynBitset seen(eng_.n_elements());
  int total_weight = 0;
  for (int k = 0; k < shards_.n_shards(); ++k) {
    EXPECT_EQ(shards_.target(k).count(), shards_.weight(k));
    total_weight += shards_.weight(k);
    // Disjoint: no element may appear in two shards.
    EXPECT_EQ(seen.and_count(shards_.target(k)), 0) << "shard " << k;
    seen.or_assign(shards_.target(k));
  }
  EXPECT_EQ(seen, eng_.coverable());
  EXPECT_EQ(total_weight, eng_.coverable().count());
}

TEST_F(ShardedSolvers, GreedyThreadInvariant) {
  util::ThreadPool ref_pool(1);
  core::ShardWorkspaces ref_ws;
  const auto ref = core::parallel_greedy_cover(eng_, ref_pool, ref_ws, shards_);
  for (const int threads : {2, 8}) {
    util::ThreadPool pool(threads);
    core::ShardWorkspaces wss;
    const auto got = core::parallel_greedy_cover(eng_, pool, wss, shards_);
    EXPECT_EQ(got.chosen, ref.chosen) << threads << " threads";
    EXPECT_EQ(got.covered, ref.covered) << threads << " threads";
    EXPECT_EQ(got.total_cost, ref.total_cost) << threads << " threads";
    EXPECT_EQ(got.complete, ref.complete) << threads << " threads";
  }
}

TEST_F(ShardedSolvers, ShardedGreedyMatchesJointAssociation) {
  // The joint greedy and the sharded greedy pick the same *set* of sets (a
  // session's sets never cover another session's users), so the materialized
  // association — first chosen set wins, per user — must be identical.
  core::SolveWorkspace ws;
  const auto joint = core::greedy_cover(eng_, ws);

  util::ThreadPool pool(8);
  core::ShardWorkspaces wss;
  const auto sharded = core::parallel_greedy_cover(eng_, pool, wss, shards_);

  EXPECT_EQ(sharded.covered, joint.covered);
  EXPECT_EQ(sharded.complete, joint.complete);
  auto joint_sorted = joint.chosen;
  auto sharded_sorted = sharded.chosen;
  std::sort(joint_sorted.begin(), joint_sorted.end());
  std::sort(sharded_sorted.begin(), sharded_sorted.end());
  EXPECT_EQ(sharded_sorted, joint_sorted);

  const auto a_joint = setcover::materialize(sc_, eng_, joint.chosen);
  const auto a_sharded = setcover::materialize(sc_, eng_, sharded.chosen);
  EXPECT_EQ(a_sharded.user_ap, a_joint.user_ap);
}

TEST_F(ShardedSolvers, ParallelStatsSanity) {
  util::ThreadPool pool(4);
  core::ShardWorkspaces wss;
  core::ParallelStats stats;
  core::parallel_greedy_cover(eng_, pool, wss, shards_, &stats);
  EXPECT_EQ(stats.tasks, shards_.n_shards());
  EXPECT_EQ(stats.workers, std::min(4, shards_.n_shards()));
  EXPECT_GE(stats.imbalance, 1.0);  // max >= mean whenever any shard has weight
  EXPECT_TRUE(std::isfinite(stats.imbalance));
}

// --- Centralized solver wiring ----------------------------------------------

TEST(ParallelDeterminism, CentralizedSolversPoolInvariant) {
  const auto sc = test_scenario(21).with_budget(0.2);
  std::vector<std::vector<int>> per_threads;
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    assoc::CentralizedParams params;
    params.pool = &pool;
    assoc::EngineContext ctx;
    ctx.build(sc, params.multi_rate);
    per_threads.push_back(assoc::centralized_mla(sc, params, ctx).assoc.user_ap);
  }
  EXPECT_EQ(per_threads[1], per_threads[0]) << "2 vs 1 threads";
  EXPECT_EQ(per_threads[2], per_threads[0]) << "8 vs 1 threads";
}

TEST(ParallelDeterminism, BudgetedSolversRejectAPool) {
  // BLA's max load and MNU's budgets bound each AP's load summed over all of
  // its sessions, so neither splits per session: a pool is a caller error,
  // not a request for a different answer.
  const auto sc = test_scenario(21).with_budget(0.2);
  util::ThreadPool pool(2);
  assoc::CentralizedParams params;
  params.pool = &pool;
  EXPECT_THROW(assoc::centralized_bla(sc, params), std::invalid_argument);
  EXPECT_THROW(assoc::centralized_mnu(sc, params), std::invalid_argument);
}

TEST(ParallelDeterminism, CentralizedMlaShardedMatchesSerialDefault) {
  // For MLA the sharded path must also agree with the pool-less default (the
  // joint greedy): same associations, since per-session gains are separable.
  const auto sc = test_scenario(33);
  const auto serial = assoc::centralized_mla(sc);
  util::ThreadPool pool(8);
  assoc::CentralizedParams params;
  params.pool = &pool;
  assoc::EngineContext ctx;
  ctx.build(sc, params.multi_rate);
  const auto sharded = assoc::centralized_mla(sc, params, ctx);
  EXPECT_EQ(sharded.assoc.user_ap, serial.assoc.user_ap);
  EXPECT_EQ(sharded.loads.total_load, serial.loads.total_load);
}

// --- Controller wiring ------------------------------------------------------

TEST(ParallelDeterminism, ControllerCommitsSameAssociationAtAnyThreadCount) {
  const auto sc = test_scenario(11, 25, 80, 4);

  const auto run = [&](int threads) {
    ctrl::ControllerConfig cfg;
    cfg.seed = 5;
    cfg.threads = threads;
    cfg.full_refresh_epochs = 2;  // exercise the full-solve path repeatedly
    ctrl::AssociationController c(sc, cfg);

    ctrl::TraceParams tp;
    tp.epochs = 6;
    tp.move_fraction = 0.15;
    tp.walk_sigma_m = 25.0;
    tp.zap_fraction = 0.05;
    tp.leave_fraction = 0.02;
    tp.join_fraction = 0.02;
    util::Rng trace_rng(6);
    const auto trace = ctrl::generate_churn_trace(c.state(), tp, trace_rng);

    std::vector<std::vector<int>> per_epoch;
    per_epoch.push_back(c.slot_ap());
    for (const auto& batch : trace.epochs) {
      c.submit(batch);
      c.drain();
      per_epoch.push_back(c.slot_ap());
    }
    const bool parallel_counted =
        c.telemetry().engine_parallel_solves.value() > 0;
    return std::make_pair(per_epoch, parallel_counted);
  };

  const auto [serial, serial_counted] = run(1);
  const auto [parallel, parallel_counted] = run(8);
  EXPECT_FALSE(serial_counted);  // threads = 1 keeps the joint reference path
  EXPECT_TRUE(parallel_counted);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t e = 0; e < serial.size(); ++e) {
    EXPECT_EQ(parallel[e], serial[e]) << "epoch " << e;
  }
}

}  // namespace
}  // namespace wmcast
