// The paper's centralized approximation algorithms, packaged against the
// WLAN model: build the coverage engine (Theorems 1/3/5 reduction), run the
// combinatorial machine, and materialize the chosen sets back into an
// association.
//
//   centralized_mla — CostSC greedy weighted set cover,   (ln n + 1)-approx.
//   centralized_bla — SCG via repeated MCG at guessed B*, (log_{8/7} n + 1).
//   centralized_mnu — MCG greedy + H1/H2 split,           8-approx.
//
// MLA has a warm-path overload taking an EngineContext: the caller builds
// the engine (EngineContext::build) and the solve reuses the context's
// workspaces. Repeated solves on one network skip the reduction; a context
// rebuilt for each new network (the online controller's full solves) reuses
// its buffers' capacity. It is also the only solve that shards across a
// thread pool: MLA's greedy splits into independent per-session problems,
// while BLA's max load and MNU's budgets bound each AP's load summed over
// every session it sends, which couples an AP's sessions (DESIGN.md §9).
#pragma once

#include "wmcast/assoc/solution.hpp"
#include "wmcast/core/engine.hpp"
#include "wmcast/core/parallel.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::assoc {

struct CentralizedParams {
  /// Maximum serving APs per user (DESIGN.md §15). 1 = the paper's single-AP
  /// model, bit-identical to pre-k builds. k >= 2 runs the serial kconn
  /// augmentation after the base solve and fills Solution::multi/multi_loads;
  /// the primary assoc/loads stay exactly the k == 1 result.
  int k = 1;
  /// false = all multicast at the scenario's basic rate (802.11 standard).
  bool multi_rate = true;
  /// MNU only: after the H1/H2 split, greedily re-add sets that still fit
  /// their group budgets (core::mcg_top_up; coverage can only grow, which
  /// preserves the 8-approx).
  /// Disable to run the paper's literal algorithm.
  bool mnu_augment = true;
  /// MLA only: non-null runs the sharded per-session greedy
  /// (core/parallel.hpp) across the pool. The association is identical to
  /// the joint greedy's at any pool size (DESIGN.md §9). centralized_bla and
  /// centralized_mnu throw std::invalid_argument when it is set.
  util::ThreadPool* pool = nullptr;
};

/// Warm solve state shared by repeated MLA solves: the built engine plus
/// reusable scratch. The caller owns keeping the engine in sync with the
/// scenario it passes to the solve (build() whenever the scenario changed).
struct EngineContext {
  core::CoverageEngine engine;
  core::SolveWorkspace ws;
  core::SessionShards shards;      // per-session partition (parallel path)
  core::ShardWorkspaces shard_ws;  // one workspace per pool lane
  /// Output: shard accounting of the last sharded solve (params.pool set);
  /// untouched by serial solves.
  core::ParallelStats parallel;

  /// Builds `engine` from the scenario (setcover::build_engine).
  void build(const wlan::Scenario& sc, bool multi_rate = true);
};

Solution centralized_mla(const wlan::Scenario& sc, const CentralizedParams& params = {});
Solution centralized_bla(const wlan::Scenario& sc, const CentralizedParams& params = {},
                         const core::ScgParams& scg = {});
/// Uses the scenario's load budget as every group's budget B_i.
Solution centralized_mnu(const wlan::Scenario& sc, const CentralizedParams& params = {});

/// Warm-path overload: `ctx.engine` must already reflect `sc` (same
/// multi_rate flag included); the reduction step is skipped.
Solution centralized_mla(const wlan::Scenario& sc, const CentralizedParams& params,
                         EngineContext& ctx);

}  // namespace wmcast::assoc
