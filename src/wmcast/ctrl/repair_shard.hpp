// Sharded incremental repair (DESIGN.md §14): partitions one epoch's dirty
// region into AP-disjoint repair tasks and runs peel + greedy re-place +
// restricted polish on each task independently across a util::ThreadPool.
//
// Partition. Two APs interact during repair only when some user who may move
// hears both: a mover can be placed on any AP it hears, and an eviction from
// an over-budget AP turns that AP's members into movers. The partition is
// therefore build_component_tasks over the movers plus the other members of
// every over-budget AP (each member hears its own AP, so uniting its heard
// set unites the AP with every AP an eviction could land on): its components
// are independent, since the peel and greedy phases of a component read and
// write only that component's AP loads and member lists.
//
// Per task. The peel and the polish are assoc::peel_over_budget and
// assoc::climb, the budget peel and move loop of assoc/local_search, run on a
// scoped wlan::LoadModel over the task's APs; between them the task's pending
// users are placed by the distributed decision rule (assoc/policy.hpp).
//
// Determinism contract. The repaired association is a pure function of
// (scenario, carried association, movable rows, params) — bitwise identical
// at any thread count — because
//  * tasks touch disjoint APs and disjoint users (writes never overlap),
//  * each task's arithmetic runs against its own scoped wlan::LoadModel with
//    task-local totals (no cross-task floating-point state),
//  * the task list and every intra-task order (peel APs ascending, pending
//    sorted, movers in movable-row order with evictions appended in peel
//    order) is fixed before dispatch.
// The peel and greedy phases commit exactly what a single global pass would;
// the polish seeds its running total with the task's AP loads summed in
// ascending AP order and evaluates its accept/reject epsilons against it
// instead of a network-wide total (a deliberate semantic choice — it is what
// makes the phase decomposable).
//
// Only the kTotalLoad objective is supported: the kMaxLoad key compares
// against the global maximum, which no AP-disjoint partition can evaluate
// locally. This is the controller's only repair path, so its incremental
// repair always minimizes total load, holding every AP to its load budget.
#pragma once

#include <vector>

#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/load_model.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::ctrl {

/// Knobs mirrored from ControllerConfig for one repair call.
struct RepairShardParams {
  bool multi_rate = true;
  /// Run the restricted local-search polish after peel + greedy.
  bool polish = true;
  double polish_min_gain = 0.02;
};

/// Per-lane scratch, reused across epochs (capacity persists; the model is
/// re-scoped per task in O(1) via begin_scope()). One per pool lane.
struct RepairLaneWorkspace {
  wlan::LoadModel model;
  std::vector<int> pending;  // users awaiting greedy placement
  std::vector<int> movers;   // task movers incl. evictions from the peel
};

/// Per-call accounting, surfaced as counters.engine.parallel.repair_*
/// telemetry. All fields are thread-invariant (the task list is fixed before
/// dispatch).
struct RepairShardStats {
  int shards = 0;          // repair tasks dispatched
  int movers = 0;          // dirty users across all tasks
  double imbalance = 0.0;  // max task movers / mean task movers (1 = balanced)
};

/// Repairs `user_ap` / `members` in place. On entry they must be consistent
/// with the carried association (members[a] lists exactly the users with
/// user_ap[u] == a); on return they reflect the repaired one. `movable_rows`
/// are the dirty users whose placement may change; users evicted by the
/// budget peel join them. `lanes` is grown to pool.size() as needed.
void repair_sharded(const wlan::Scenario& sc, std::vector<int>& user_ap,
                    std::vector<std::vector<int>>& members,
                    const std::vector<int>& movable_rows,
                    const RepairShardParams& params, util::ThreadPool& pool,
                    std::vector<RepairLaneWorkspace>& lanes,
                    RepairShardStats* stats = nullptr);

/// AP-connected component tasks over a dirty-row set: a union-find over the
/// APs unites every row's heard set, and each component that holds a row
/// becomes one task. repair_sharded partitions its repair with it, and the
/// k-connectivity overlay repair (ctrl/controller.cpp) its per-user
/// derivations, which read only the rows' heard APs.
///  * rows[t] lists task t's rows in input order.
///  * ap_task[a] is the task of AP a's component, or -1 when it holds no
///    row; scanning a upwards yields each task's APs in ascending order.
///  * order[] is the dispatch order: grid cell of the component's lowest AP,
///    then lowest AP id. It is a pure function of the AP layout, so any
///    consumer iterating tasks in this order is thread-invariant, and when
///    the partition degenerates into many tiny components, neighboring APs'
///    tasks land in the same static chunk and walk cache-adjacent rows.
/// Rows with an empty heard-set are appended to `isolated` instead of any
/// task.
struct ComponentTasks {
  std::vector<std::vector<int>> rows;
  std::vector<int> ap_task;
  std::vector<int> order;
};
void build_component_tasks(const wlan::Scenario& sc,
                           const std::vector<int>& dirty_rows,
                           ComponentTasks& tasks, std::vector<int>& isolated);

}  // namespace wmcast::ctrl
