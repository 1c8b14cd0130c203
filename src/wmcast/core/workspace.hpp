// Reusable per-solve scratch. Allocate one workspace, pass it to every solve
// on the same engine: after warm-up each solve runs with zero steady-state
// allocations (bitsets and vectors keep their capacity between calls). The
// sharded solves keep one workspace per pool lane (core/parallel.hpp), so
// their steady state allocates nothing either.
#pragma once

#include <cstdint>
#include <vector>

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
  util::DynBitset remaining;        // uncovered target elements
  util::DynBitset target;           // the solve's initial remaining (MCG split)
  std::vector<int32_t> gain;        // exact |members ∩ remaining| per set slot
  std::vector<HeapEntry> heap;      // lazy max-heap storage
  std::vector<double> group_cost;   // per-group spend (MCG, MNU's top-up)
  std::vector<double> pass_budget;  // per-pass budgets (SCG)
  util::DynBitset scg_remaining;    // SCG's cross-pass remainder
  util::DynBitset cov_a, cov_b;     // MCG's H1/H2 split accumulators
  std::vector<double> residual;     // layering's residual costs
  std::vector<char> taken;          // layering's chosen mask
  std::vector<int32_t> newly;       // commit batch: elements covered this pick
};

/// Scratch for the association-side algorithms (local search, controller
/// repair): per-AP member lists and per-user placements. prepare() keeps
/// inner-vector capacity so steady-state epochs allocate nothing.
struct AssocWorkspace {
  std::vector<std::vector<int>> members;  // per AP
  std::vector<int> user_ap;               // per user
  std::vector<int> scratch;               // movers / pending lists

  void prepare(int n_aps, int n_users) {
    if (members.size() < static_cast<size_t>(n_aps)) {
      members.resize(static_cast<size_t>(n_aps));
    }
    for (int a = 0; a < n_aps; ++a) members[static_cast<size_t>(a)].clear();
    user_ap.assign(static_cast<size_t>(n_users), -1);
    scratch.clear();
  }
};

}  // namespace wmcast::core
