// Event model for the online association controller (paper §3.1: quasi-static
// users join, leave, move, and zap channels). Producers — the protocol
// simulator, trace replay, or an operator console — submit events; the
// controller drains them in batches and re-optimizes incrementally.
//
// Users are identified by dense *slot* ids; a UserJoin with slot ==
// n_slots() extends the slot space (NetworkState::apply). Slots persist
// across leaves so a returning user keeps its id and traces stay stable.
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "wmcast/wlan/geometry.hpp"

namespace wmcast::ctrl {

enum class EventType {
  kUserJoin,        // a user appears (position + session) and wants service
  kUserLeave,       // a user departs the network entirely
  kUserMove,        // a present user relocates
  kRateChange,      // a session's stream data rate changes
  kSubscribe,       // a present user (re)subscribes, possibly zapping sessions
  kUnsubscribe,     // a present user stops watching but stays in the network
};

/// Stable lowercase names used by trace files and telemetry keys.
const char* event_type_name(EventType t);
/// Inverse of event_type_name; throws std::invalid_argument for unknown names.
EventType event_type_from_name(const std::string& name);

struct Event {
  EventType type = EventType::kUserJoin;
  int user = -1;            // join/leave/move/subscribe/unsubscribe
  int session = -1;         // join/subscribe/rate_change
  wlan::Point pos{};        // join/move
  double rate_mbps = 0.0;   // rate_change

  static Event join(int user, wlan::Point pos, int session);
  static Event leave(int user);
  static Event move(int user, wlan::Point pos);
  static Event rate_change(int session, double rate_mbps);
  static Event subscribe(int user, int session);
  static Event unsubscribe(int user);

  friend bool operator==(const Event&, const Event&) = default;
};

/// An event plus its ingest stamp (the serve loop's virtual arrival time in
/// seconds); events entering through the plain push() APIs carry stamp 0.
struct StampedEvent {
  Event ev;
  double t_s = 0.0;
};

/// Ingestion queue: producers push, the controller drains batches. Guarded by
/// a mutex so protocol agents or an RPC frontend can submit from other
/// threads while the controller drains (the CI sanitizer config exercises
/// this path).
///
/// Optionally bounded: set_capacity() caps the undrained backlog, and the
/// bounded entry points (try_push / push_shed_oldest) report overflow as a
/// reject/shed return value instead of blocking — the serve loop's
/// backpressure hooks, which count those outcomes in its own telemetry. The
/// plain push() APIs always accept so existing controller paths are
/// unaffected.
class EventQueue {
 public:
  void push(Event e);
  void push_all(const std::vector<Event>& events);

  /// Caps queued (undrained) events; 0 = unbounded (the default). Shrinking
  /// the capacity below the current backlog does not drop anything already
  /// queued — the bound applies to subsequent bounded pushes.
  void set_capacity(size_t cap);

  /// Bounded push (reject-newest policy): refuses the event and returns
  /// false when the queue is at capacity.
  bool try_push(Event e, double stamp = 0.0);

  /// Bounded push (shed-oldest policy): always enqueues, evicting the oldest
  /// queued event first when at capacity. Returns true when something was
  /// shed.
  bool push_shed_oldest(Event e, double stamp = 0.0);

  /// Removes and returns up to `max_batch` events in FIFO order
  /// (max_batch <= 0 drains everything pending).
  std::vector<Event> drain(int max_batch = 0);

  /// drain() variant preserving ingest stamps, for latency accounting.
  std::vector<StampedEvent> drain_stamped(int max_batch = 0);

  /// Stamp of the i-th queued event (0 = oldest) without removing it; false
  /// when fewer than i+1 events are queued. The serve loop peeks these to
  /// decide when a batch is due (staleness deadline / batch-full trigger).
  bool peek_stamp(size_t i, double* t_s) const;

  size_t size() const;
  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::deque<StampedEvent> q_;
  size_t capacity_ = 0;
};

}  // namespace wmcast::ctrl
