// The local decision rule shared by the distributed algorithms (§4.2, §5.2,
// §6.2) and the discrete-event protocol agents: given the loads of the
// neighboring APs, pick the best AP for one user.
//
//  * kTotalLoad  — Distributed MNU and MLA: minimize the summed load of the
//                  user's neighboring APs (ties broken by signal strength).
//  * kLoadVector — Distributed BLA: minimize the vector of neighboring AP
//                  loads sorted in non-increasing order, lexicographically.
//
// An associated user only moves when the move is a strict improvement; an
// unassociated user joins the best feasible AP unconditionally. When budget
// enforcement is on, APs whose load would exceed the scenario budget are not
// candidates (the user may end up unassociated — the MNU setting).
#pragma once

#include <vector>

#include "wmcast/wlan/load_model.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::assoc {

enum class Objective {
  kTotalLoad,   // distributed MNU / MLA
  kLoadVector,  // distributed BLA
};

struct PolicyParams {
  Objective objective = Objective::kTotalLoad;
  bool enforce_budget = true;
  bool multi_rate = true;
  /// Improvements smaller than this are treated as ties (keeps the
  /// convergence argument of Lemmas 1-2 robust to floating-point noise).
  double eps = 1e-12;
};

/// Returns the AP user `u` should be associated with, given the current
/// member lists of every AP (members[a] = users associated with a;
/// `current_ap` must be consistent with them). Returns the current AP when no
/// strict improvement exists, or wlan::kNoAp when the user cannot be served.
int choose_best_ap(const wlan::Scenario& sc, int u,
                   const std::vector<std::vector<int>>& members, int current_ap,
                   const PolicyParams& params);

/// Partial-information variant: the user only heard back from `heard_aps`
/// (a subset of its neighbors, strongest-first order preserved by the
/// caller). Scores and candidates are restricted to those APs; the user's
/// current AP must be among them (callers defer otherwise — without fresh
/// state for the current AP, "stay" cannot be scored). Used by the protocol
/// simulator under message loss.
int choose_best_ap_among(const wlan::Scenario& sc, int u,
                         const std::vector<std::vector<int>>& members, int current_ap,
                         const PolicyParams& params, wlan::IndexSpan heard_aps);

/// Incremental-model variant: loads come from `model` (which the caller keeps
/// consistent with the current association) instead of member-list rescans,
/// so one decision costs O(neighbors · rate levels) instead of
/// O(neighbors · members). Returns the same AP as choose_best_ap over the
/// matching member lists — the model's loads are bit-identical to the
/// rescans, and both overloads score through one shared path.
int choose_best_ap(const wlan::Scenario& sc, const wlan::LoadModel& model, int u,
                   int current_ap, const PolicyParams& params);

}  // namespace wmcast::assoc
