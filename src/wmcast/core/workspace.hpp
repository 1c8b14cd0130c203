// Reusable per-solve scratch. Allocate one workspace, pass it to every solve
// on the same engine: after warm-up each solve runs with zero steady-state
// allocations (bitsets and vectors keep their capacity between calls).
//
// A workspace can be seated on a util::Arena (one per SessionShards lane —
// see core/parallel.hpp): every bitset word block and scratch vector then
// allocates from that arena instead of the shared heap, so parallel solves
// never contend on the global allocator. The arena must outlive the
// workspace; ShardWorkspaces owns both and orders them accordingly.
#pragma once

#include <cstdint>
#include <vector>

#include "wmcast/util/arena.hpp"
#include "wmcast/util/bitset.hpp"

namespace wmcast::core {

/// One stale-tolerant heap entry of the lazy greedy: `gain` is the marginal
/// gain at push time; the entry is stale iff gain != ws.gain[set].
struct HeapEntry {
  int32_t gain;
  int32_t set;
  // The set's cost, copied in so the comparator's double fast path reads
  // only the two 16-byte entries at hand; the exact fallback for near-tied
  // ratios reads the engine's cached (mantissa, exponent) decomposition.
  double cost;
};

/// Scratch for the set-cover solvers (core/solve.hpp). Results are written
/// into the caller-provided result structs; everything here is internal
/// state, reusable across solves and engines of any size.
struct SolveWorkspace {
  SolveWorkspace() = default;
  /// Arena-backed workspace: all scratch allocates from `arena` (which must
  /// outlive this workspace). Results returned by the solvers stay heap-backed
  /// — copies out of arena bitsets fall back to the heap by construction.
  explicit SolveWorkspace(util::Arena* arena)
      : remaining(0, util::ArenaAllocator<uint64_t>(arena)),
        target(0, util::ArenaAllocator<uint64_t>(arena)),
        gain(util::ArenaAllocator<int32_t>(arena)),
        heap(util::ArenaAllocator<HeapEntry>(arena)),
        group_cost(util::ArenaAllocator<double>(arena)),
        pass_budget(util::ArenaAllocator<double>(arena)),
        scg_remaining(0, util::ArenaAllocator<uint64_t>(arena)),
        cov_a(0, util::ArenaAllocator<uint64_t>(arena)),
        cov_b(0, util::ArenaAllocator<uint64_t>(arena)),
        residual(util::ArenaAllocator<double>(arena)),
        taken(util::ArenaAllocator<char>(arena)),
        shard_group_cost(util::ArenaAllocator<double>(arena)),
        newly(util::ArenaAllocator<int32_t>(arena)) {}

  util::DynBitset remaining;             // uncovered target elements
  util::DynBitset target;                // the solve's initial remaining (MCG split)
  util::ArenaVector<int32_t> gain;       // exact |members ∩ remaining| per set slot
  util::ArenaVector<HeapEntry> heap;     // lazy max-heap storage
  util::ArenaVector<double> group_cost;  // per-group spend (MCG)
  util::ArenaVector<double> pass_budget; // per-pass budgets (SCG)
  util::DynBitset scg_remaining;         // SCG's cross-pass remainder
  util::DynBitset cov_a, cov_b;          // MCG's H1/H2 split accumulators
  util::ArenaVector<double> residual;    // layering's residual costs
  util::ArenaVector<char> taken;         // layering's chosen mask
  util::ArenaVector<double> shard_group_cost;  // per-group spend of one shard's picks
  util::ArenaVector<int32_t> newly;      // commit batch: elements covered this pick
};

/// Scratch for the association-side algorithms (local search, distributed
/// rounds, controller repair): per-AP member lists and per-user placements.
/// prepare() keeps inner-vector capacity so steady-state epochs allocate
/// nothing.
struct AssocWorkspace {
  std::vector<std::vector<int>> members;  // per AP
  std::vector<int> user_ap;               // per user
  std::vector<int> decision;              // per user (simultaneous rounds)
  std::vector<int> scratch;               // movers / pending lists

  void prepare(int n_aps, int n_users) {
    if (members.size() < static_cast<size_t>(n_aps)) {
      members.resize(static_cast<size_t>(n_aps));
    }
    for (int a = 0; a < n_aps; ++a) members[static_cast<size_t>(a)].clear();
    user_ap.assign(static_cast<size_t>(n_users), -1);
    decision.clear();
    scratch.clear();
  }
};

}  // namespace wmcast::core
