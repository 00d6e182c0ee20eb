#include "src/machine/clock.h"

#include <algorithm>

#include "src/base/panic.h"

namespace oskit {

namespace {

uint32_t NextGen(uint32_t gen) { return gen + 1 == 0 ? 1 : gen + 1; }

}  // namespace

SimClock::~SimClock() {
  for (uint32_t i = 0; i < slot_count_; ++i) {
    Slot& slot = SlotAt(i);
    if (slot.destroy != nullptr) {
      slot.destroy(slot.fn);
    }
  }
}

uint32_t SimClock::TakeSlot() {
  if (!free_.empty()) {
    uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  if (slot_count_ == chunks_.size() * kChunkSlots) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slot_count_++;
}

SimClock::EventId SimClock::Push(SimTime when, uint32_t index) {
  if (when < now_) {
    when = now_;
  }
  uint32_t gen = SlotAt(index).gen;
  queue_.push_back(Entry{when, next_seq_++, index, gen});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  ++pending_;
  return (EventId{gen} << 32) | index;
}

void SimClock::Release(uint32_t index) {
  Slot& slot = SlotAt(index);
  void (*destroy)(void*) = slot.destroy;
  slot.run = nullptr;
  slot.destroy = nullptr;
  destroy(slot.fn);
  free_.push_back(index);
}

bool SimClock::Cancel(EventId id) {
  // Only a still-pending event can be cancelled; an id that already ran (or
  // was cancelled) reports failure so watchdog users can tell the two apart.
  auto index = static_cast<uint32_t>(id);
  if (index >= slot_count_) {
    return false;
  }
  Slot& slot = SlotAt(index);
  if (slot.gen != id >> 32 || slot.destroy == nullptr) {
    return false;
  }
  // Lazy deletion: the new generation makes the heap entry stale, so it is
  // skipped when it surfaces.
  slot.gen = NextGen(slot.gen);
  --pending_;
  Release(index);
  return true;
}

bool SimClock::SkipCancelled() {
  while (!queue_.empty()) {
    const Entry& front = queue_.front();
    if (SlotAt(front.slot).gen == front.gen) {
      return true;
    }
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
  }
  return false;
}

void SimClock::RunFront() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Entry ev = queue_.back();
  queue_.pop_back();
  Slot& slot = SlotAt(ev.slot);
  // The id goes stale before the callback runs, so cancelling it from inside
  // fails; the slot stays occupied (and unreusable) until the call returns.
  slot.gen = NextGen(slot.gen);
  --pending_;
  OSKIT_ASSERT(ev.when >= now_);
  now_ = ev.when;
  ++events_run_;
  slot.run(slot.fn);
  Release(ev.slot);
}

SimTime SimClock::NextEventTime() {
  return SkipCancelled() ? queue_.front().when : ~static_cast<SimTime>(0);
}

bool SimClock::RunOne() {
  if (!SkipCancelled()) {
    return false;
  }
  RunFront();
  return true;
}

void SimClock::RunUntil(SimTime deadline) {
  while (SkipCancelled() && queue_.front().when <= deadline) {
    RunFront();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace oskit
