// Discrete-event simulated clock.
//
// All hardware timing in the simulated platform — wire propagation, disk
// seeks, timer chips — is expressed as events on one shared clock, so a
// multi-machine world (two PCs on an Ethernet segment) advances through a
// single totally-ordered event sequence and every run is reproducible.

#ifndef OSKIT_SRC_MACHINE_CLOCK_H_
#define OSKIT_SRC_MACHINE_CLOCK_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace oskit {

using SimTime = uint64_t;  // nanoseconds since simulation start

inline constexpr SimTime kNsPerUs = 1000;
inline constexpr SimTime kNsPerMs = 1000 * 1000;
inline constexpr SimTime kNsPerSec = 1000 * 1000 * 1000;

class SimClock {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (clamped to >= Now()).
  EventId ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules `fn` to run `delay` ns from now.
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending event.  Returns false if it already ran or was
  // cancelled (safe to call redundantly).  Watchdog patterns rely on that
  // distinction: "cancel failed" is how a waker learns the timeout already
  // fired, so cancelling a completed event must NOT report success.
  bool Cancel(EventId id);

  bool HasPending() const { return !live_.empty(); }

  // Time of the earliest pending event; ~0 when none are pending.
  SimTime NextEventTime();

  // Runs the earliest pending event, advancing Now() to its time.
  // Returns false when no events remain.
  bool RunOne();

  // Runs events until `deadline` (events at exactly `deadline` included);
  // Now() ends at `deadline` even if the queue drains earlier.
  void RunUntil(SimTime deadline);

  size_t events_run() const { return events_run_; }

 private:
  struct Event {
    SimTime when;
    EventId id;  // tie-break: schedule order
    std::function<void()> fn;
  };

  struct Later {  // heap order: earliest (when, id) at the front
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;
    }
  };

  // Removes and returns the earliest queued event (cancelled or not).
  Event PopEarliest();

  SimTime now_ = 0;
  EventId next_id_ = 1;
  size_t events_run_ = 0;
  // Binary heap under Later (std::push_heap/pop_heap), so the earliest
  // event can be moved out rather than copied from a const top().
  std::vector<Event> queue_;
  std::unordered_set<EventId> live_;       // scheduled, not yet run/cancelled
  std::unordered_set<EventId> cancelled_;  // lazy-deletion tombstones
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_CLOCK_H_
