// Local-search post-optimizer: hill climbing over single-user reassignments
// (including serving an unserved user or parking a served one) against one
// of two objectives. Useful
//   * as a polish pass after any algorithm (never worsens the objective),
//   * as a strong heuristic reference on instances too big for exact B&B,
//   * as the controller's per-task repair polish (ctrl/repair_shard.cpp),
//     which runs the same budget peel and move loop through peel_over_budget()
//     and climb().
//
// This is not from the paper; DESIGN.md lists it as an ablation tool. Both
// objectives are lexicographic with served users first, so polishing never
// sacrifices a served user for airtime, and every accepted move keeps the
// target AP within the scenario's load budget.
#pragma once

#include <vector>

#include "wmcast/assoc/solution.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/wlan/load_model.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::assoc {

enum class SearchObjective {
  kTotalLoad,  // MLA: most served users, then minimum sum of AP loads
  kMaxLoad,    // BLA: most served users, then minimum max AP load (ties: total)
};

struct LocalSearchParams {
  SearchObjective objective = SearchObjective::kTotalLoad;
  bool multi_rate = true;
  int max_moves = 100000;
  /// Minimum load improvement (in load units) a move must buy to be
  /// accepted; moves that serve a previously unserved user are always
  /// accepted. 0 accepts any improvement. The online controller uses this to
  /// stop paying a re-association (a real handoff) for an epsilon gain.
  double min_gain = 0.0;
  /// Early stop: quit as soon as every coverable user is served and the total
  /// load is at or below this value (< 0 disables). The online controller's
  /// degradation escalation stops here instead of polishing to a local
  /// optimum, since every further move is a billable handoff.
  double target_total = -1.0;
};

struct LocalSearchStats {
  int moves = 0;
  bool reached_local_optimum = false;
};

/// Improves `start` by steepest single-user moves until a local optimum.
/// The returned solution is feasible whenever `start` is (moves that would
/// violate a budget are never accepted; an infeasible start is repaired by
/// unserving users on over-budget APs first).
///
/// `workspace`, when given, supplies the per-AP/per-user scratch; callers
/// running the search every epoch (the online controller) pass one so
/// steady-state invocations allocate nothing.
Solution local_search(const wlan::Scenario& sc, const wlan::Association& start,
                      const LocalSearchParams& params = {},
                      LocalSearchStats* stats = nullptr,
                      core::AssocWorkspace* workspace = nullptr);

/// The state peel_over_budget() and climb() work on: an association, its
/// per-AP member lists (members[a] lists exactly the users u with
/// user_ap[u] == a), a LoadModel holding those memberships, and the running
/// objective terms. The caller seeds `served` and `total`: local_search
/// accumulates them while placing the start association; the sharded repair
/// counts a task's placed movers and sums its APs' loads in ascending AP
/// order. Both functions update the terms with the same
/// `total += new_load - old_load` arithmetic on every membership change.
struct ClimbState {
  std::vector<int>& user_ap;
  std::vector<std::vector<int>>& members;
  wlan::LoadModel& model;
  int served = 0;
  double total = 0.0;
};

/// Budget peel for AP `a`: while its load exceeds the scenario's budget,
/// evicts the member whose removal frees the most load (the first in member
/// order on ties), appending each evicted user to `evicted` when given.
void peel_over_budget(const wlan::Scenario& sc, ClimbState& st, int a,
                      std::vector<int>* evicted = nullptr);

/// The move loop: passes over `movers` in order, moving each to the heard AP
/// whose objective key is best, until a pass moves no one, `max_moves` moves
/// were made, or the `target_total` stop fires (measured against the served
/// count at entry). A move never takes an AP past its budget, and must serve
/// one more user or beat `min_gain`. Every probe adds and then subtracts its
/// load deltas on `st.total`, so ties break on exactly the rounding a
/// physical move-and-undo sequence would leave. `params.multi_rate` is not
/// read: the load model carries its own.
LocalSearchStats climb(const wlan::Scenario& sc, const LocalSearchParams& params,
                       ClimbState& st, const std::vector<int>& movers);

}  // namespace wmcast::assoc
