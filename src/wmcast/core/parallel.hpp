// Sharded per-session solves over the shared coverage engine (DESIGN.md §9).
//
// The paper's network model puts neighboring APs on non-interfering channels,
// and a multicast session's candidate sets cover only that session's users —
// so the per-session coverage subproblems are independent: covering one
// session's elements never changes another session's marginal gains. This
// module partitions the engine's element universe into such shards (one per
// session, or one per channel component when the interference extension
// groups sessions sharing spectrum), solves every shard independently across
// a util::ThreadPool, and merges the per-shard results in shard-index order.
//
// Determinism contract: the merged output is a pure function of the engine
// and the shard order — bitwise identical at any thread count, because
//  * shards are solved against disjoint targets with per-lane workspaces,
//  * every shard's result lands in a pre-sized slot indexed by shard id,
//  * the merge walks those slots in ascending shard order.
// threads = 1 (an inline pool) is the reference semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/util/arena.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/util/bitset.hpp"
#include "wmcast/util/thread_pool.hpp"

namespace wmcast::core {

/// Deterministic partition of the engine's coverable elements into
/// independent shards. Rebuild after every engine build.
class SessionShards {
 public:
  /// One shard per session id the engine's sets mention (ascending).
  void build(const CoverageEngine& eng);

  /// One shard per distinct component label: sessions with equal
  /// `session_component[s]` share a shard (the interference extension's
  /// same-channel coupling). Labels may be arbitrary ints; shards are ordered
  /// by ascending label. Sessions beyond the span's size get their own shard.
  void build(const CoverageEngine& eng, std::span<const int> session_component);

  int n_shards() const { return static_cast<int>(targets_.size()); }
  /// Coverable elements of shard k (disjoint across shards).
  const util::DynBitset& target(int k) const {
    return targets_[static_cast<size_t>(k)];
  }
  /// Number of elements in shard k — the static load-balance weight.
  int weight(int k) const { return weights_[static_cast<size_t>(k)]; }
  /// Ascending session ids belonging to shard k.
  const std::vector<int>& sessions(int k) const {
    return sessions_[static_cast<size_t>(k)];
  }

 private:
  void build_impl(const CoverageEngine& eng, const std::vector<int>& shard_of_session);

  std::vector<util::DynBitset> targets_;
  std::vector<int> weights_;
  std::vector<std::vector<int>> sessions_;
};

/// One SolveWorkspace per pool lane, each seated on its own monotonic
/// util::Arena, reused across sharded solves so the steady state allocates
/// nothing — and never from the shared heap even while warming up. prepare()
/// must run before dispatch (it grows the vectors on the calling thread;
/// lanes only index afterwards). Arenas are declared before the workspaces
/// and heap-pinned via unique_ptr, so they outlive every container seated on
/// them and survive vector reallocation.
struct ShardWorkspaces {
  std::vector<std::unique_ptr<util::Arena>> arenas;
  std::vector<SolveWorkspace> ws;

  void prepare(int lanes) {
    while (arenas.size() < static_cast<size_t>(lanes)) {
      arenas.push_back(std::make_unique<util::Arena>());
    }
    while (ws.size() < static_cast<size_t>(lanes)) {
      ws.emplace_back(arenas[ws.size()].get());
    }
  }
  SolveWorkspace& lane(int k) { return ws[static_cast<size_t>(k)]; }

  /// Sum of the lanes' arena high-water marks (peak live scratch bytes).
  size_t arena_high_water_bytes() const {
    size_t total = 0;
    for (const auto& a : arenas) total += a->high_water_bytes();
    return total;
  }
  /// Sum of the lanes' reserved arena block capacity.
  size_t arena_reserved_bytes() const {
    size_t total = 0;
    for (const auto& a : arenas) total += a->reserved_bytes();
    return total;
  }
};

/// Per-solve accounting, surfaced as counters.engine.parallel.* telemetry.
struct ParallelStats {
  int tasks = 0;         // shards dispatched
  int workers = 0;       // pool lanes that received work
  double imbalance = 0.0;  // max shard weight / mean shard weight (1 = balanced)
  uint64_t arena_high_water_bytes = 0;  // peak live per-shard arena scratch
  uint64_t arena_reserved_bytes = 0;    // arena block capacity reserved
};

/// Fills `stats` from a partition + pool (helper for the entry points below).
void fill_parallel_stats(const SessionShards& shards, const util::ThreadPool& pool,
                         ParallelStats& stats);

/// The generic sharded entry point: runs
///   solve_shard(shard_index, workspace, shards.target(shard_index))
/// for every shard across the pool — static chunking, one workspace per lane
/// — and returns the per-shard results in shard-index order. `Result` must be
/// default-constructible and movable.
template <typename Result, typename Fn>
std::vector<Result> parallel_solve_sessions(const SessionShards& shards,
                                            util::ThreadPool& pool,
                                            ShardWorkspaces& wss, Fn&& solve_shard,
                                            ParallelStats* stats = nullptr) {
  const int n = shards.n_shards();
  std::vector<Result> out(static_cast<size_t>(n));
  wss.prepare(pool.size());
  pool.parallel_for(0, n, [&](int64_t b, int64_t e, int lane) {
    SolveWorkspace& ws = wss.lane(lane);
    for (int64_t k = b; k < e; ++k) {
      out[static_cast<size_t>(k)] =
          solve_shard(static_cast<int>(k), ws, shards.target(static_cast<int>(k)));
    }
  });
  if (stats != nullptr) {
    fill_parallel_stats(shards, pool, *stats);
    stats->arena_high_water_bytes = wss.arena_high_water_bytes();
    stats->arena_reserved_bytes = wss.arena_reserved_bytes();
  }
  return out;
}

// --- Merged per-solver entry points ----------------------------------------
//
// Each runs its core/solve.hpp counterpart restricted to every shard's target
// and merges in shard order: chosen lists concatenate, covered bitsets OR,
// costs sum. For greedy cover the merged chosen *set* and the materialized
// association are identical to the joint (unsharded) solve — covering one
// session never changes another session's gains, so the joint greedy's
// per-session subsequence IS the shard's greedy trajectory; only the
// interleaving of the chosen order differs. For MCG/SCG the shards also
// decouple the per-AP budgets (each session rides its own channel's airtime),
// which is the model the sharding assumes — see DESIGN.md §9.

CoverResult parallel_greedy_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                                  ShardWorkspaces& wss, const SessionShards& shards,
                                  ParallelStats* stats = nullptr);

/// Per-shard MCG with the H1/H2 split applied shard-locally; group budgets
/// apply per shard. With `augment`, each shard greedily re-adds sets that
/// still fit its budgets (MNU's post-split augmentation).
McgResult parallel_mcg_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                             ShardWorkspaces& wss, const SessionShards& shards,
                             std::span<const double> group_budgets,
                             bool augment = false, ParallelStats* stats = nullptr);

/// Per-shard SCG; feasible = every shard feasible, bstar = max over shards,
/// group_cost sums, passes sum.
ScgResult parallel_scg_cover(const CoverageEngine& eng, util::ThreadPool& pool,
                             ShardWorkspaces& wss, const SessionShards& shards,
                             const ScgParams& params = {},
                             ParallelStats* stats = nullptr);

}  // namespace wmcast::core
