#include "wmcast/ctrl/events.hpp"

#include <algorithm>

#include "wmcast/util/assert.hpp"

namespace wmcast::ctrl {

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kUserJoin: return "join";
    case EventType::kUserLeave: return "leave";
    case EventType::kUserMove: return "move";
    case EventType::kRateChange: return "rate_change";
    case EventType::kSubscribe: return "subscribe";
    case EventType::kUnsubscribe: return "unsubscribe";
  }
  return "unknown";
}

EventType event_type_from_name(const std::string& name) {
  for (const EventType t : {EventType::kUserJoin, EventType::kUserLeave,
                            EventType::kUserMove, EventType::kRateChange,
                            EventType::kSubscribe, EventType::kUnsubscribe}) {
    if (name == event_type_name(t)) return t;
  }
  util::require(false, "event_type_from_name: unknown event type '" + name + "'");
  return EventType::kUserJoin;  // unreachable
}

Event Event::join(int user, wlan::Point pos, int session) {
  Event e;
  e.type = EventType::kUserJoin;
  e.user = user;
  e.pos = pos;
  e.session = session;
  return e;
}

Event Event::leave(int user) {
  Event e;
  e.type = EventType::kUserLeave;
  e.user = user;
  return e;
}

Event Event::move(int user, wlan::Point pos) {
  Event e;
  e.type = EventType::kUserMove;
  e.user = user;
  e.pos = pos;
  return e;
}

Event Event::rate_change(int session, double rate_mbps) {
  Event e;
  e.type = EventType::kRateChange;
  e.session = session;
  e.rate_mbps = rate_mbps;
  return e;
}

Event Event::subscribe(int user, int session) {
  Event e;
  e.type = EventType::kSubscribe;
  e.user = user;
  e.session = session;
  return e;
}

Event Event::unsubscribe(int user) {
  Event e;
  e.type = EventType::kUnsubscribe;
  e.user = user;
  return e;
}

void EventQueue::push(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  q_.push_back(StampedEvent{e, 0.0});
}

void EventQueue::push_all(const std::vector<Event>& events) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Event& e : events) q_.push_back(StampedEvent{e, 0.0});
}

void EventQueue::set_capacity(size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = cap;
}

bool EventQueue::try_push(Event e, double stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ > 0 && q_.size() >= capacity_) return false;
  q_.push_back(StampedEvent{e, stamp});
  return true;
}

bool EventQueue::push_shed_oldest(Event e, double stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool shed = capacity_ > 0 && q_.size() >= capacity_;
  if (shed) q_.pop_front();
  q_.push_back(StampedEvent{e, stamp});
  return shed;
}

std::vector<Event> EventQueue::drain(int max_batch) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = max_batch <= 0
                       ? q_.size()
                       : std::min(q_.size(), static_cast<size_t>(max_batch));
  std::vector<Event> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(q_[i].ev);
  q_.erase(q_.begin(), q_.begin() + static_cast<ptrdiff_t>(n));
  return out;
}

std::vector<StampedEvent> EventQueue::drain_stamped(int max_batch) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = max_batch <= 0
                       ? q_.size()
                       : std::min(q_.size(), static_cast<size_t>(max_batch));
  std::vector<StampedEvent> out(q_.begin(), q_.begin() + static_cast<ptrdiff_t>(n));
  q_.erase(q_.begin(), q_.begin() + static_cast<ptrdiff_t>(n));
  return out;
}

bool EventQueue::peek_stamp(size_t i, double* t_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= q_.size()) return false;
  *t_s = q_[i].t_s;
  return true;
}

size_t EventQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

}  // namespace wmcast::ctrl
