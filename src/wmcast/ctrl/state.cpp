#include "wmcast/ctrl/state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "wmcast/util/assert.hpp"

namespace wmcast::ctrl {

NetworkState NetworkState::from_scenario(const wlan::Scenario& sc) {
  util::require(sc.has_geometry() && sc.rate_table() != nullptr,
                "NetworkState: needs a geometric scenario (positions drive moves)");
  NetworkState st;
  st.ap_pos_ = sc.ap_positions();
  st.table_ = *sc.rate_table();
  st.ap_grid_ = wlan::GridIndex(st.ap_pos_, st.table_.range_m());
  st.budget_ = sc.load_budget();
  st.session_rate_.resize(static_cast<size_t>(sc.n_sessions()));
  for (int s = 0; s < sc.n_sessions(); ++s) {
    st.session_rate_[static_cast<size_t>(s)] = sc.session_rate(s);
  }
  st.slots_.resize(static_cast<size_t>(sc.n_users()));
  for (int u = 0; u < sc.n_users(); ++u) {
    auto& slot = st.slots_[static_cast<size_t>(u)];
    slot.pos = sc.user_positions()[static_cast<size_t>(u)];
    slot.session = sc.user_session(u);
    slot.present = true;
    slot.subscribed = true;
  }
  return st;
}

double NetworkState::link_rate(int a, int s) const {
  return table_.rate_for_distance(
      wlan::distance(ap_pos_[static_cast<size_t>(a)], slots_[static_cast<size_t>(s)].pos));
}

double NetworkState::area_side() const {
  double side = 0.0;
  for (const auto& p : ap_pos_) side = std::max({side, p.x, p.y});
  for (const auto& s : slots_) {
    if (s.present) side = std::max({side, s.pos.x, s.pos.y});
  }
  return side;
}

int NetworkState::n_active() const {
  int n = 0;
  for (const auto& s : slots_) {
    if (s.wants_service()) ++n;
  }
  return n;
}

void NetworkState::apply(const Event& e) {
  const auto valid_slot = [&](int u) { return u >= 0 && u < n_slots(); };
  const auto valid_session = [&](int s) { return s >= 0 && s < n_sessions(); };
  // A NaN position would poison every distance (and thus every link rate)
  // computed from it; an infinite one silently strands the user out of range
  // of all APs. Both come from corrupted traces, never from real producers.
  const auto valid_pos = [&](const wlan::Point& p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };

  switch (e.type) {
    case EventType::kUserJoin: {
      util::require(e.user >= 0 && e.user <= n_slots(),
                    "apply(join): slot id gap or negative slot");
      util::require(valid_session(e.session), "apply(join): unknown session");
      util::require(valid_pos(e.pos), "apply(join): non-finite position");
      if (e.user == n_slots()) slots_.emplace_back();
      auto& slot = slots_[static_cast<size_t>(e.user)];
      util::require(!slot.present, "apply(join): user already present");
      slot.pos = e.pos;
      slot.session = e.session;
      slot.present = true;
      slot.subscribed = true;
      return;
    }
    case EventType::kUserLeave: {
      util::require(valid_slot(e.user), "apply(leave): unknown slot");
      auto& slot = slots_[static_cast<size_t>(e.user)];
      util::require(slot.present, "apply(leave): user not present");
      slot.present = false;
      slot.subscribed = false;
      return;
    }
    case EventType::kUserMove: {
      util::require(valid_slot(e.user), "apply(move): unknown slot");
      util::require(valid_pos(e.pos), "apply(move): non-finite position");
      auto& slot = slots_[static_cast<size_t>(e.user)];
      util::require(slot.present, "apply(move): user not present");
      slot.pos = e.pos;
      return;
    }
    case EventType::kRateChange: {
      util::require(valid_session(e.session), "apply(rate_change): unknown session");
      util::require(std::isfinite(e.rate_mbps) && e.rate_mbps > 0.0,
                    "apply(rate_change): rate must be positive and finite");
      session_rate_[static_cast<size_t>(e.session)] = e.rate_mbps;
      return;
    }
    case EventType::kSubscribe: {
      util::require(valid_slot(e.user), "apply(subscribe): unknown slot");
      util::require(valid_session(e.session), "apply(subscribe): unknown session");
      auto& slot = slots_[static_cast<size_t>(e.user)];
      util::require(slot.present, "apply(subscribe): user not present");
      slot.session = e.session;
      slot.subscribed = true;
      return;
    }
    case EventType::kUnsubscribe: {
      util::require(valid_slot(e.user), "apply(unsubscribe): unknown slot");
      auto& slot = slots_[static_cast<size_t>(e.user)];
      util::require(slot.present, "apply(unsubscribe): user not present");
      slot.subscribed = false;
      return;
    }
  }
  util::require(false, "apply: unknown event type");
}

wlan::Scenario NetworkState::to_scenario(std::vector<int>* row_slot) const {
  const auto n = static_cast<size_t>(n_slots());
  std::vector<wlan::Point> user_pos(n);
  std::vector<int> user_session(n);
  std::vector<char> active(n);
  for (size_t s = 0; s < n; ++s) {
    user_pos[s] = slots_[s].pos;
    user_session[s] = slots_[s].session;
    active[s] = slots_[s].wants_service();
  }
  if (row_slot != nullptr) {
    row_slot->resize(n);
    std::iota(row_slot->begin(), row_slot->end(), 0);
  }
  return wlan::Scenario::from_geometry(ap_pos_, std::move(user_pos),
                                       std::move(user_session), session_rate_, table_,
                                       budget_, nullptr, &active);
}

wlan::Association compact_association(const std::vector<int>& slot_ap,
                                      const std::vector<int>& row_slot) {
  wlan::Association out = wlan::Association::none(static_cast<int>(row_slot.size()));
  for (size_t r = 0; r < row_slot.size(); ++r) {
    const size_t slot = static_cast<size_t>(row_slot[r]);
    if (slot < slot_ap.size()) out.user_ap[r] = slot_ap[slot];
  }
  return out;
}

std::vector<int> compute_dirty_slots(const NetworkState& before,
                                     const NetworkState& after,
                                     const std::vector<int>& slot_ap) {
  const int n_after = after.n_slots();
  const UserSlot absent{};

  // Sessions whose stream rate moved: every subscriber's load contribution
  // changes at whatever AP serves it.
  std::vector<char> session_changed(static_cast<size_t>(after.n_sessions()), 0);
  for (int s = 0; s < after.n_sessions(); ++s) {
    if (s >= before.n_sessions() || before.session_rate(s) != after.session_rate(s)) {
      session_changed[static_cast<size_t>(s)] = 1;
    }
  }

  // Slots whose own record changed across the drain — *as the optimizer sees
  // it*. 802.11 rate tables are step functions, so a short walk frequently
  // changes no link rate at all; such a move leaves the user's candidate-AP
  // set, its rates, and every group bottleneck exactly where they were, and
  // re-deciding it would only manufacture signaling.
  std::vector<char> changed(static_cast<size_t>(n_after), 0);
  for (int i = 0; i < n_after; ++i) {
    const UserSlot& b = i < before.n_slots() ? before.slot(i) : absent;
    const UserSlot& a = after.slot(i);
    if (b == a) continue;
    if (i < before.n_slots() && b.present == a.present &&
        b.subscribed == a.subscribed && b.session == a.session) {
      // Only APs within coverage range of the old or the new position can see
      // a rate change (everything else is 0 on both sides), so the grid
      // queries around both positions bound the check at O(k), not O(n_aps).
      bool rate_moved = false;
      const auto check = [&](int ap) {
        if (!rate_moved) rate_moved = before.link_rate(ap, i) != after.link_rate(ap, i);
      };
      after.for_each_ap_near(b.pos, check);
      after.for_each_ap_near(a.pos, check);
      if (!rate_moved) continue;  // pure move inside the same rate steps
    }
    changed[static_cast<size_t>(i)] = 1;
  }

  std::vector<char> dirty(static_cast<size_t>(n_after), 0);
  for (int i = 0; i < n_after; ++i) {
    const auto& a = after.slot(i);
    if (!a.wants_service()) continue;
    const int ap = static_cast<size_t>(i) < slot_ap.size() ? slot_ap[static_cast<size_t>(i)]
                                                           : wlan::kNoAp;
    if (changed[static_cast<size_t>(i)] || ap == wlan::kNoAp ||
        session_changed[static_cast<size_t>(a.session)]) {
      dirty[static_cast<size_t>(i)] = 1;
    }
  }

  // Bottleneck rule: group the pre-drain association by (AP, session); when a
  // directly-changed member leaves a group and the group's minimum member
  // rate moves, the survivors' transmission rate — hence their AP's load —
  // moves with it, so they must re-decide too.
  std::map<std::pair<int, int>, std::vector<int>> groups;
  const int n_tracked = std::min(before.n_slots(), static_cast<int>(slot_ap.size()));
  for (int i = 0; i < n_tracked; ++i) {
    const auto& b = before.slot(i);
    if (!b.wants_service()) continue;
    const int ap = slot_ap[static_cast<size_t>(i)];
    if (ap == wlan::kNoAp) continue;
    groups[{ap, b.session}].push_back(i);
  }
  for (const auto& [key, members] : groups) {
    const int ap = key.first;
    double old_min = std::numeric_limits<double>::infinity();
    double new_min = std::numeric_limits<double>::infinity();
    bool lost_member = false;
    for (const int i : members) {
      old_min = std::min(old_min, before.link_rate(ap, i));
      if (i < n_after && !changed[static_cast<size_t>(i)]) {
        new_min = std::min(new_min, after.link_rate(ap, i));
      } else {
        lost_member = true;
      }
    }
    if (!lost_member || new_min == old_min) continue;
    for (const int i : members) {
      if (i < n_after && !changed[static_cast<size_t>(i)] &&
          after.slot(i).wants_service()) {
        dirty[static_cast<size_t>(i)] = 1;
      }
    }
  }

  std::vector<int> out;
  for (int i = 0; i < n_after; ++i) {
    if (dirty[static_cast<size_t>(i)]) out.push_back(i);
  }
  return out;
}

}  // namespace wmcast::ctrl
