#include "wmcast/ctrl/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace wmcast::ctrl {
namespace {

// One AP at the origin, one at (300, 0) — far enough that users near the
// origin are out of its 200 m radio range. 802.11a staircase (Table 1):
// 54 Mbps within 35 m, ..., 6 Mbps within 200 m.
NetworkState two_ap_state(std::vector<wlan::Point> users, std::vector<int> sessions,
                          std::vector<double> rates = {1.0, 1.0}) {
  const std::vector<wlan::Point> aps = {{0, 0}, {300, 0}};
  const auto sc = wlan::Scenario::from_geometry(aps, std::move(users),
                                                std::move(sessions), std::move(rates),
                                                wlan::RateTable::ieee80211a());
  return NetworkState::from_scenario(sc);
}

TEST(NetworkState, SeedsFromScenarioAllPresentSubscribed) {
  const auto st = two_ap_state({{10, 0}, {40, 0}}, {0, 1});
  EXPECT_EQ(st.n_aps(), 2);
  EXPECT_EQ(st.n_slots(), 2);
  EXPECT_EQ(st.n_active(), 2);
  EXPECT_TRUE(st.slot(0).wants_service());
  EXPECT_DOUBLE_EQ(st.link_rate(0, 0), 54.0);  // 10 m
  EXPECT_DOUBLE_EQ(st.link_rate(0, 1), 48.0);  // 40 m
  EXPECT_DOUBLE_EQ(st.link_rate(1, 0), 0.0);   // 290 m: out of range
}

TEST(NetworkState, ApplyJoinExtendsSlotSpaceAndValidates) {
  auto st = two_ap_state({{10, 0}}, {0});
  st.apply(Event::join(1, {20, 0}, 1));
  EXPECT_EQ(st.n_slots(), 2);
  EXPECT_TRUE(st.slot(1).wants_service());
  EXPECT_EQ(st.slot(1).session, 1);

  EXPECT_THROW(st.apply(Event::join(3, {0, 0}, 0)), std::invalid_argument)
      << "slot id gaps are rejected";
  EXPECT_THROW(st.apply(Event::join(0, {0, 0}, 0)), std::invalid_argument)
      << "double join";
  EXPECT_THROW(st.apply(Event::join(2, {0, 0}, 9)), std::invalid_argument)
      << "unknown session";
}

TEST(NetworkState, ApplyRejectsNonFinitePositionsAndRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto st = two_ap_state({{10, 0}}, {0});
  EXPECT_THROW(st.apply(Event::join(1, {nan, 0}, 0)), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::join(1, {0, inf}, 0)), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::move(0, {nan, nan})), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::move(0, {-inf, 0})), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::rate_change(0, inf)), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::rate_change(0, nan)), std::invalid_argument);
  // Nothing above may have mutated the state.
  EXPECT_EQ(st.n_slots(), 1);
  EXPECT_DOUBLE_EQ(st.slot(0).pos.x, 10.0);
  EXPECT_DOUBLE_EQ(st.session_rate(0), 1.0);
}

TEST(NetworkState, ApplyLifecycleAndErrors) {
  auto st = two_ap_state({{10, 0}, {40, 0}}, {0, 1});
  st.apply(Event::unsubscribe(0));
  EXPECT_TRUE(st.slot(0).present);
  EXPECT_FALSE(st.slot(0).wants_service());
  st.apply(Event::subscribe(0, 1));  // re-subscribe zaps to session 1
  EXPECT_EQ(st.slot(0).session, 1);
  st.apply(Event::leave(0));
  EXPECT_FALSE(st.slot(0).present);
  EXPECT_THROW(st.apply(Event::move(0, {1, 1})), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::subscribe(0, 0)), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::leave(0)), std::invalid_argument);
  EXPECT_THROW(st.apply(Event::rate_change(0, -1.0)), std::invalid_argument);
  st.apply(Event::rate_change(0, 2.5));
  EXPECT_DOUBLE_EQ(st.session_rate(0), 2.5);
}

TEST(NetworkState, ToScenarioGivesEverySlotARow) {
  auto st = two_ap_state({{10, 0}, {40, 0}, {60, 0}}, {0, 1, 0});
  st.apply(Event::leave(1));
  st.apply(Event::unsubscribe(2));
  std::vector<int> slot_of_row;
  const auto sc = st.to_scenario(&slot_of_row);
  ASSERT_EQ(sc.n_users(), 3);
  EXPECT_EQ(slot_of_row, (std::vector<int>{0, 1, 2}));
  // The slots that want no service keep their rows, empty ones; their
  // positions and sessions stay as they were.
  EXPECT_EQ(sc.aps_of_user(0), (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(sc.link_rate(0, 0), 54.0);
  EXPECT_TRUE(sc.aps_of_user(1).empty());
  EXPECT_TRUE(sc.aps_of_user(2).empty());
  EXPECT_EQ(sc.n_coverable_users(), 1);
  EXPECT_EQ(sc.users_of_ap(0), (std::vector<int>{0}));
  EXPECT_EQ(sc.user_session(1), 1);
  EXPECT_DOUBLE_EQ(sc.user_positions()[2].x, 60.0);
}

TEST(SlotAssociation, RoundTripsThroughCompactRows) {
  const std::vector<int> slot_of_row = {0, 2, 5};
  const std::vector<int> slots = {3, wlan::kNoAp, wlan::kNoAp, wlan::kNoAp,
                                  wlan::kNoAp, 1};
  EXPECT_EQ(compact_association(slots, slot_of_row),
            (wlan::Association{{3, wlan::kNoAp, 1}}));
  // Slots beyond the association's size map to kNoAp.
  EXPECT_EQ(compact_association({3}, {0, 4}), (wlan::Association{{3, wlan::kNoAp}}));
}

TEST(DirtyRegion, MoveAcrossRateStepIsDirty) {
  auto before = two_ap_state({{10, 0}, {40, 0}}, {0, 1});
  auto after = before;
  after.apply(Event::move(0, {100, 0}));  // 54 -> 18 Mbps on AP 0
  const auto dirty = compute_dirty_slots(before, after, {0, 0});
  EXPECT_EQ(dirty, (std::vector<int>{0}));
}

TEST(DirtyRegion, PureMoveInsideRateStepIsClean) {
  auto before = two_ap_state({{10, 0}, {40, 0}}, {0, 1});
  auto after = before;
  after.apply(Event::move(0, {12, 0}));  // still 54 Mbps to AP 0, 0 to AP 1
  EXPECT_TRUE(compute_dirty_slots(before, after, {0, 0}).empty())
      << "a walk that changes no link rate must not manufacture signaling";
}

TEST(DirtyRegion, UnassociatedServiceWantingSlotIsDirty) {
  const auto st = two_ap_state({{10, 0}, {40, 0}}, {0, 1});
  const auto dirty = compute_dirty_slots(st, st, {0, wlan::kNoAp});
  EXPECT_EQ(dirty, (std::vector<int>{1}));
}

TEST(DirtyRegion, RateChangeDirtiesAllSubscribersOfTheSession) {
  auto before = two_ap_state({{10, 0}, {40, 0}, {60, 0}}, {0, 1, 0});
  auto after = before;
  after.apply(Event::rate_change(0, 3.0));
  const auto dirty = compute_dirty_slots(before, after, {0, 0, 0});
  EXPECT_EQ(dirty, (std::vector<int>{0, 2}));
}

TEST(DirtyRegion, BottleneckDepartureDirtiesGroupSurvivors) {
  // u0 (30 m, 54 Mbps) and u1 (100 m, 18 Mbps) share AP 0 / session 0; u2
  // watches session 1 on the same AP. When the bottleneck u1 leaves, the
  // group's tx rate jumps 18 -> 54, so u0 must re-decide; u2's group is
  // untouched.
  auto before = two_ap_state({{30, 0}, {100, 0}, {30, 50}}, {0, 0, 1});
  auto after = before;
  after.apply(Event::leave(1));
  const auto dirty = compute_dirty_slots(before, after, {0, 0, 0});
  EXPECT_EQ(dirty, (std::vector<int>{0}));
}

TEST(DirtyRegion, NonBottleneckDepartureLeavesGroupClean) {
  auto before = two_ap_state({{30, 0}, {100, 0}, {30, 50}}, {0, 0, 1});
  auto after = before;
  after.apply(Event::leave(0));  // u0 was not the group bottleneck
  EXPECT_TRUE(compute_dirty_slots(before, after, {0, 0, 0}).empty());
}

}  // namespace
}  // namespace wmcast::ctrl
