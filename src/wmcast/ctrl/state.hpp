// Mutable network state behind the association controller. The solver-side
// wlan::Scenario is immutable by design; NetworkState is the long-lived
// record the controller patches as events arrive, projected per epoch into a
// Scenario with one user per slot.
//
// Identifier space: a slot is the stable controller-side user id (it grows
// on joins and never shrinks), and user s of the epoch scenario is slot s. A
// slot that is absent or unsubscribed keeps a row, but an empty one, so the
// solvers, the repair and the load folds skip it as uncoverable.
#pragma once

#include <vector>

#include "wmcast/ctrl/events.hpp"
#include "wmcast/wlan/association.hpp"
#include "wmcast/wlan/grid_index.hpp"
#include "wmcast/wlan/rate_table.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::ctrl {

struct UserSlot {
  wlan::Point pos{};
  int session = 0;
  bool present = false;     // user is in the network
  bool subscribed = false;  // user wants its session served

  bool wants_service() const { return present && subscribed; }

  friend bool operator==(const UserSlot&, const UserSlot&) = default;
};

class NetworkState {
 public:
  NetworkState() = default;

  /// Seeds the state from a geometric scenario: every scenario user becomes a
  /// present, subscribed slot (slot id == scenario user id), and link rates
  /// follow the rate table the scenario was built with. Throws
  /// std::invalid_argument for explicit-link scenarios, which carry no
  /// positions to move.
  static NetworkState from_scenario(const wlan::Scenario& sc);

  int n_aps() const { return static_cast<int>(ap_pos_.size()); }
  int n_slots() const { return static_cast<int>(slots_.size()); }
  int n_sessions() const { return static_cast<int>(session_rate_.size()); }
  double load_budget() const { return budget_; }
  double session_rate(int s) const { return session_rate_[static_cast<size_t>(s)]; }
  const wlan::RateTable& rate_table() const { return table_; }
  const std::vector<wlan::Point>& ap_positions() const { return ap_pos_; }
  const UserSlot& slot(int s) const { return slots_[static_cast<size_t>(s)]; }

  /// PHY rate AP `a` -> slot `s` at the slot's current position; 0 = out of
  /// range. Valid for any slot, present or not.
  double link_rate(int a, int s) const;

  /// Uniform grid over the AP positions (cell size = the rate table's
  /// coverage radius). AP positions never change after from_scenario, so the
  /// index is built once and shared by every range query.
  const wlan::GridIndex& ap_grid() const { return ap_grid_; }

  /// Calls fn(a) for every AP whose grid cell intersects the coverage disk
  /// around `p` — a superset of the in-range APs; callers filter by
  /// link_rate/distance. O(k) in the local AP density, not O(n_aps).
  template <typename Fn>
  void for_each_ap_near(const wlan::Point& p, Fn&& fn) const {
    ap_grid_.for_each_candidate(p, table_.range_m(), fn);
  }

  /// Side of the bounding square of all node positions (trace generation
  /// re-places movers inside it, mirroring wlan::churn_epoch).
  double area_side() const;

  /// Number of slots with wants_service().
  int n_active() const;

  /// Applies one event; throws std::invalid_argument when the event is
  /// malformed (join of a present user, move/subscribe of an absent one,
  /// unknown session, non-positive rate, slot id gaps). A join with
  /// user == n_slots() extends the slot space.
  void apply(const Event& e);

  /// Projects the epoch scenario: user s is slot s, and a slot without
  /// wants_service() gets an empty candidate row. `row_slot` (optional out)
  /// receives the identity map; perfbench/ reads it.
  wlan::Scenario to_scenario(std::vector<int>* row_slot = nullptr) const;

  friend bool operator==(const NetworkState&, const NetworkState&) = default;

 private:
  std::vector<wlan::Point> ap_pos_;
  wlan::RateTable table_ = wlan::RateTable::ieee80211a();
  std::vector<double> session_rate_;
  double budget_ = 0.9;
  std::vector<UserSlot> slots_;
  wlan::GridIndex ap_grid_;  // derived from ap_pos_ + table_, built once
};

/// Projects a slot-space association onto the rows of `row_slot` (slots
/// beyond the association's size map to kNoAp). perfbench/ reads it.
wlan::Association compact_association(const std::vector<int>& slot_ap,
                                      const std::vector<int>& row_slot);

/// The controller's dirty-region rule. Given the state before and after a
/// drained batch and the pre-drain slot association, returns the slots that
/// must re-decide, sorted ascending:
///  * slots whose UserSlot changed (joined, left+returned, moved, zapped,
///    (un)subscribed) and still want service — except pure moves that change
///    no link rate to any AP (step rate tables make these common no-ops);
///  * slots that want service but are unassociated (unplaced work);
///  * subscribers of any session whose stream rate changed (their load
///    contribution moved everywhere);
///  * current members of any (AP, session) multicast group whose bottleneck
///    transmission rate moved because a directly-dirty member left it.
std::vector<int> compute_dirty_slots(const NetworkState& before,
                                     const NetworkState& after,
                                     const std::vector<int>& slot_ap);

}  // namespace wmcast::ctrl
