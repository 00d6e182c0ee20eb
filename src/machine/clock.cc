#include "src/machine/clock.h"

#include <algorithm>

#include "src/base/panic.h"

namespace oskit {

SimClock::EventId SimClock::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  EventId id = next_id_++;
  queue_.push_back(Event{when, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  live_.insert(id);
  return id;
}

bool SimClock::Cancel(EventId id) {
  // Only a still-pending event can be cancelled; an id that already ran (or
  // was cancelled) reports failure so watchdog users can tell the two apart.
  if (live_.erase(id) == 0) {
    return false;
  }
  // Lazy deletion: the queue entry is skipped when it surfaces.
  cancelled_.insert(id);
  return true;
}

SimClock::Event SimClock::PopEarliest() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

SimTime SimClock::NextEventTime() {
  while (!queue_.empty()) {
    const Event& ev = queue_.front();
    if (cancelled_.erase(ev.id) > 0) {
      PopEarliest();
      continue;
    }
    return ev.when;
  }
  return ~static_cast<SimTime>(0);
}

bool SimClock::RunOne() {
  while (!queue_.empty()) {
    Event ev = PopEarliest();
    if (cancelled_.erase(ev.id) > 0) {
      continue;
    }
    live_.erase(ev.id);
    OSKIT_ASSERT(ev.when >= now_);
    now_ = ev.when;
    ++events_run_;
    ev.fn();
    return true;
  }
  return false;
}

void SimClock::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.front().when <= deadline) {
    Event ev = PopEarliest();
    if (cancelled_.erase(ev.id) > 0) {
      continue;
    }
    live_.erase(ev.id);
    now_ = ev.when;
    ++events_run_;
    ev.fn();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace oskit
