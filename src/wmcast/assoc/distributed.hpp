// The paper's distributed algorithms (§4.2, §5.2, §6.2) as a deterministic
// round engine: users repeatedly apply the local decision rule
// (assoc::choose_best_ap) until a fixed point.
//
//  * Sequential mode — users decide one at a time on fresh information; this
//    converges on static networks (Lemmas 1 and 2).
//  * Simultaneous mode — all users decide on the same snapshot and apply
//    together; this can oscillate forever (the paper's Fig. 4), which the
//    engine detects by hashing the association after every round.
//  * Locked mode — the paper's §8 remedy: users decide on the same snapshot,
//    but a mover applies only if it holds the lock of every AP it hears. The
//    lowest user id wins each lock (ties break on MAC address in a
//    deployment); the losers keep their AP for the round. Winners hear
//    disjoint sets of APs, so their improving moves cannot undo each other
//    and the rounds converge where simultaneous mode oscillates.
//
// Distributed MNU and MLA share the kTotalLoad objective (the paper uses the
// same protocol for both); distributed BLA uses kLoadVector.
#pragma once

#include <cstdint>
#include <vector>

#include "wmcast/assoc/policy.hpp"
#include "wmcast/assoc/solution.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::assoc {

enum class UpdateMode { kSequential, kSimultaneous, kLocked };

struct DistributedParams {
  Objective objective = Objective::kTotalLoad;
  UpdateMode mode = UpdateMode::kSequential;
  int max_rounds = 200;
  bool enforce_budget = true;
  bool multi_rate = true;
  /// Fixed decision order (user ids). Empty = shuffle once with the rng.
  /// The paper's worked examples use the natural order u1, u2, ...
  std::vector<int> order;
  /// Starting association (empty = everyone unassociated). The paper's
  /// Fig. 4 oscillation starts from a given configuration.
  wlan::Association initial;
};

/// Lock arbitration counts of a kLocked run.
struct LockStats {
  int64_t lock_grants = 0;  // movers that held every lock and moved
  int64_t deferrals = 0;    // mover-rounds lost to a lock conflict
};

/// Runs the round engine from params.initial (default all unassociated).
/// Solution::rounds is the number of executed rounds and Solution::converged
/// reports whether a fixed point (or, in simultaneous mode, the absence of a
/// cycle) was reached. `lock_stats`, when given, receives kLocked's counts.
Solution distributed_associate(const wlan::Scenario& sc, util::Rng& rng,
                               const DistributedParams& params = {},
                               LockStats* lock_stats = nullptr);

/// Convenience wrappers matching the paper's three protocols (sequential).
Solution distributed_mnu(const wlan::Scenario& sc, util::Rng& rng);
Solution distributed_mla(const wlan::Scenario& sc, util::Rng& rng);
Solution distributed_bla(const wlan::Scenario& sc, util::Rng& rng);

}  // namespace wmcast::assoc
