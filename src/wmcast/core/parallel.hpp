// Sharded per-session MLA greedy over the shared coverage engine (DESIGN.md
// §9).
//
// A multicast session's candidate sets cover only that session's users, and
// CostSC has no budget, so covering one session's elements never changes
// another session's marginal gains: the greedy splits into independent
// per-session problems. This module partitions the engine's element universe
// into one shard per session, runs the greedy on every shard across a
// util::ThreadPool, and merges the per-shard results in shard-index order.
// MNU's budgets and BLA's max load do not split this way: the paper's per-AP
// budget bounds the load an AP carries summed over every session it sends,
// so those solves stay joint (assoc/centralized.hpp).
//
// Determinism contract: the merged output is a pure function of the engine
// and the shard order — bitwise identical at any thread count, because
//  * shards are solved against disjoint targets with per-lane workspaces,
//  * every shard's result lands in a pre-sized slot indexed by shard id,
//  * the merge walks those slots in ascending shard order.
// threads = 1 (an inline pool) is the reference semantics.
#pragma once

#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/util/bitset.hpp"
#include "wmcast/util/thread_pool.hpp"

namespace wmcast::core {

/// Deterministic partition of the engine's coverable elements into one shard
/// per session id the engine's sets mention (ascending). Rebuild after every
/// engine build.
class SessionShards {
 public:
  void build(const CoverageEngine& eng);

  int n_shards() const { return static_cast<int>(targets_.size()); }
  /// Coverable elements of shard k (disjoint across shards).
  const util::DynBitset& target(int k) const {
    return targets_[static_cast<size_t>(k)];
  }
  /// Number of elements in shard k — the static load-balance weight.
  int weight(int k) const { return weights_[static_cast<size_t>(k)]; }

 private:
  std::vector<util::DynBitset> targets_;
  std::vector<int> weights_;
};

/// One SolveWorkspace per pool lane, reused across sharded solves so the
/// steady state allocates nothing. parallel_greedy_cover grows it to the
/// pool's lane count on the calling thread before dispatch; lanes only index.
using ShardWorkspaces = std::vector<SolveWorkspace>;

/// Per-solve accounting, surfaced as counters.engine.parallel.* telemetry.
struct ParallelStats {
  int tasks = 0;         // shards dispatched
  int workers = 0;       // pool lanes that received work
  double imbalance = 0.0;  // max shard weight / mean shard weight (1 = balanced)
};

/// CostSC greedy_cover on every shard's target, static chunking across the
/// pool with one workspace per lane, merged in shard order: chosen lists
/// concatenate, covered bitsets OR, costs sum. The merged chosen *set* and
/// the materialized association are identical to the joint (unsharded)
/// solve — the joint greedy's per-session subsequence IS the shard's greedy
/// trajectory; only the interleaving of the chosen order differs.
CoverResult parallel_greedy_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                                  ShardWorkspaces& wss, const SessionShards& shards,
                                  ParallelStats* stats = nullptr);

}  // namespace wmcast::core
