#include "wmcast/ctrl/events.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

namespace wmcast::ctrl {
namespace {

TEST(EventFactories, FillTheRightFields) {
  const auto j = Event::join(3, {10.0, 20.0}, 1);
  EXPECT_EQ(j.type, EventType::kUserJoin);
  EXPECT_EQ(j.user, 3);
  EXPECT_EQ(j.session, 1);
  EXPECT_DOUBLE_EQ(j.pos.x, 10.0);
  EXPECT_DOUBLE_EQ(j.pos.y, 20.0);

  const auto r = Event::rate_change(2, 1.5);
  EXPECT_EQ(r.type, EventType::kRateChange);
  EXPECT_EQ(r.session, 2);
  EXPECT_DOUBLE_EQ(r.rate_mbps, 1.5);

  EXPECT_EQ(Event::leave(7).user, 7);
  EXPECT_EQ(Event::move(5, {1, 2}).type, EventType::kUserMove);
  EXPECT_EQ(Event::subscribe(4, 0).session, 0);
  EXPECT_EQ(Event::unsubscribe(9).type, EventType::kUnsubscribe);
}

TEST(EventTypeNames, RoundTrip) {
  const EventType all[] = {EventType::kUserJoin,   EventType::kUserLeave,
                           EventType::kUserMove,   EventType::kRateChange,
                           EventType::kSubscribe,  EventType::kUnsubscribe};
  for (const EventType t : all) {
    EXPECT_EQ(event_type_from_name(event_type_name(t)), t);
  }
  EXPECT_THROW(event_type_from_name("bogus"), std::invalid_argument);
}

TEST(EventQueue, DrainsInFifoOrder) {
  EventQueue q;
  q.push(Event::leave(0));
  q.push(Event::leave(1));
  q.push_all({Event::leave(2), Event::leave(3)});
  EXPECT_EQ(q.size(), 4u);

  const auto batch = q.drain();
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)].user, i);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MaxBatchLimitsTheDrain) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.push(Event::leave(i));
  const auto first = q.drain(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].user, 0);
  EXPECT_EQ(first[1].user, 1);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.drain(0).size(), 3u) << "max_batch <= 0 drains everything";
}

TEST(EventQueue, ConcurrentProducersLoseNothing) {
  EventQueue q;
  constexpr int kPerThread = 500;
  std::thread a([&] {
    for (int i = 0; i < kPerThread; ++i) q.push(Event::leave(i));
  });
  std::thread b([&] {
    for (int i = 0; i < kPerThread; ++i) q.push(Event::leave(kPerThread + i));
  });
  a.join();
  b.join();
  EXPECT_EQ(q.drain().size(), 2u * kPerThread);
}

}  // namespace
}  // namespace wmcast::ctrl
