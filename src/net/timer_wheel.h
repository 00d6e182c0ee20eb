// Hierarchical timing wheel for TCP connection timers.
//
// The 4.4BSD stack this port follows drives every TCP timer by sweeping all
// PCBs twice per second (tcp_slowtimo) and five times per second
// (tcp_fasttimo) and decrementing four int fields per block.  That is O(n)
// per tick in the number of connections — fine for a 1997 server holding a
// few dozen PCBs, ruinous at ten thousand.  This wheel replaces the sweeps
// with Varghese & Lauck's hashed hierarchical timing wheels: arming,
// canceling, and restarting a timer are O(1), and a tick only touches the
// timers that actually expire (plus an O(slots) cascade when a level wraps).
//
// Granularity is one 100ms tick — the greatest common divisor of the BSD
// fast (200ms) and slow (500ms) periods — so every classic timer lands
// exactly on its legacy boundary.  TcpTimerGoldenTest (netscale_test) holds
// the stack to the wire behaviour recorded from the sweeps.
//
// Timer is an intrusive node: the owner embeds it, the wheel links it into
// a slot.  Destroying an armed Timer unlinks it, so a PCB deleted with live
// timers never leaves a dangling callback behind.

#ifndef OSKIT_SRC_NET_TIMER_WHEEL_H_
#define OSKIT_SRC_NET_TIMER_WHEEL_H_

#include <cstdint>
#include <functional>

#include "src/trace/counters.h"

namespace oskit {

class TimerWheel;

// One schedulable timer, embedded in its owner.  The callback is fixed at
// construction; Arm/Restart choose the deadline.
class WheelTimer {
 public:
  WheelTimer() = default;
  ~WheelTimer();
  WheelTimer(const WheelTimer&) = delete;
  WheelTimer& operator=(const WheelTimer&) = delete;

  bool armed() const { return wheel_ != nullptr; }
  // Absolute wheel tick this timer fires at; meaningless when not armed.
  uint64_t deadline() const { return deadline_; }

 private:
  friend class TimerWheel;

  std::function<void()> fn_;
  TimerWheel* wheel_ = nullptr;  // non-null while linked into a slot
  uint64_t deadline_ = 0;        // absolute tick
  // hlist-style links: pprev_ is the address of whatever points at this
  // node (slot head or predecessor's next_), so unlink needs no slot lookup.
  WheelTimer** pprev_ = nullptr;
  WheelTimer* next_ = nullptr;
};

class TimerWheel {
 public:
  // Level 0 resolves single ticks; each higher level covers the full span
  // of the one below per slot.  Four levels at 256/64/64/64 span 2^26 ticks
  // (~77 days of simulated time at 100ms/tick) before clamping.
  static constexpr int kL0Bits = 8;
  static constexpr int kLevelBits = 6;
  static constexpr int kLevels = 4;
  static constexpr uint64_t kL0Slots = 1u << kL0Bits;
  static constexpr uint64_t kLevelSlots = 1u << kLevelBits;

  TimerWheel();
  ~TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Current tick: the number of Tick() calls so far.  Timers armed for
  // `delay` ticks fire during Tick() number now()+delay.
  uint64_t now() const { return now_; }

  // Sets the timer's callback.  Must be called before the first Arm; the
  // callback persists across re-arms.
  void Bind(WheelTimer* timer, std::function<void()> fn);

  // Schedules `timer` to fire `delay_ticks` from now.  A delay of 0 is
  // clamped to 1 (the next tick) — a BSD timer value of N means "between
  // N-1 and N periods", never "immediately".  Re-arming an armed timer
  // moves it (classic restart).
  void Arm(WheelTimer* timer, uint64_t delay_ticks);

  // Unschedules; no-op when idle.
  void Cancel(WheelTimer* timer);

  // Advances one tick and fires every timer due at it.  Callbacks may arm,
  // cancel, or destroy other timers (and re-arm themselves).
  void Tick();

  // Statistics, exposed as trace counters so the owner can register them
  // (NetStack binds them as net.timer.wheel.*).
  trace::Counter& armed_counter() { return armed_count_; }
  trace::Counter& fired_counter() { return fired_; }
  trace::Counter& cascades_counter() { return cascades_; }
  uint64_t armed_count() const { return armed_count_; }
  uint64_t fired() const { return fired_; }
  uint64_t cascades() const { return cascades_; }

 private:
  // Links `timer` into the slot covering `deadline_ticks` (absolute).
  void Place(WheelTimer* timer, uint64_t deadline);
  void Unlink(WheelTimer* timer);
  // Re-places every timer parked in higher-level slot `slot` of `level`.
  void Cascade(int level, uint64_t slot);

  uint64_t now_ = 0;
  trace::Counter armed_count_;  // gauge: timers currently linked
  trace::Counter fired_;
  trace::Counter cascades_;
  // slots_[0] has kL0Slots entries; levels 1..3 have kLevelSlots each.
  // Each entry is a doubly-linked list head (null = empty).
  WheelTimer* l0_[kL0Slots] = {};
  WheelTimer* up_[kLevels - 1][kLevelSlots] = {};
};

}  // namespace oskit

#endif  // OSKIT_SRC_NET_TIMER_WHEEL_H_
