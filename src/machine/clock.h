// Discrete-event simulated clock.
//
// All hardware timing in the simulated platform — wire propagation, disk
// seeks, timer chips — is expressed as events on one shared clock, so a
// multi-machine world (two PCs on an Ethernet segment) advances through a
// single totally-ordered event sequence and every run is reproducible.
//
// Scheduling an event allocates nothing once the tables have grown to the
// run's peak: the callback is stored inline in a slot of a generation-indexed
// slot table, and the heap orders small (when, seq, slot, gen) entries.

#ifndef OSKIT_SRC_MACHINE_CLOCK_H_
#define OSKIT_SRC_MACHINE_CLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace oskit {

using SimTime = uint64_t;  // nanoseconds since simulation start

inline constexpr SimTime kNsPerUs = 1000;
inline constexpr SimTime kNsPerMs = 1000 * 1000;
inline constexpr SimTime kNsPerSec = 1000 * 1000 * 1000;

class SimClock {
 public:
  // (generation << 32) | slot.  Generations start at 1, so no id is 0.
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  // Largest callback (lambda captures or a std::function) a slot holds.
  static constexpr size_t kInlineBytes = 64;

  SimClock() = default;
  ~SimClock();
  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (clamped to >= Now()).
  // Events run in (when, schedule order).
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "clock callbacks take no arguments");
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "clock callbacks are stored inline: capture at most 64 bytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned callback");
    uint32_t index = TakeSlot();
    Slot& slot = SlotAt(index);
    ::new (static_cast<void*>(slot.fn)) Fn(std::forward<F>(fn));
    slot.run = [](void* p) { (*static_cast<Fn*>(p))(); };
    slot.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    return Push(when, index);
  }

  // Schedules `fn` to run `delay` ns from now.
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event and destroys its callback.  Returns false if it
  // already ran, is running, or was cancelled, and for a stale id whose slot
  // now holds a later event (safe to call redundantly).  Watchdog patterns
  // rely on that distinction: "cancel failed" is how a waker learns the
  // timeout already fired, so cancelling a completed event must NOT report
  // success.
  bool Cancel(EventId id);

  bool HasPending() const { return pending_ != 0; }

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
  // One callback's storage.  A slot is occupied while `destroy` is set; its
  // generation advances when the event runs or is cancelled, so ids and heap
  // entries naming an earlier occupant no longer match.
  struct Slot {
    alignas(std::max_align_t) unsigned char fn[kInlineBytes];
    void (*run)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    uint32_t gen = 1;
  };

  struct Entry {
    SimTime when;
    uint64_t seq;  // tie-break: schedule order
    uint32_t slot;
    uint32_t gen;
  };

  struct Later {  // heap order: earliest (when, seq) at the front
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Slots live in fixed-size chunks that never move, so a running callback
  // stays put while the events it schedules grow the table.
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkShift;

  Slot& SlotAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  uint32_t TakeSlot();
  EventId Push(SimTime when, uint32_t index);
  // Destroys the callback of a slot whose generation has already advanced
  // and returns the slot to the free list.
  void Release(uint32_t index);
  // Pops heap entries whose event was cancelled; false when the heap empties.
  bool SkipCancelled();
  void RunFront();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t events_run_ = 0;
  size_t pending_ = 0;
  // Binary heap under Later (std::push_heap/pop_heap).  A cancelled event's
  // entry stays until it surfaces and is skipped by its stale generation.
  std::vector<Entry> queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slot_count_ = 0;
  std::vector<uint32_t> free_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_CLOCK_H_
