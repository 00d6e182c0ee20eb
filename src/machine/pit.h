// Simulated programmable interval timer (8254-style) on IRQ 0.
//
// Fault injection (src/fault): the "pit.skew" site models a drifting
// oscillator — a fired tick lands early or late by the site arg percent of
// the nominal period.  The PIT tracks the accumulated drift and steers
// subsequent ticks back toward the nominal timeline (what a periodic-mode
// 8254 does naturally: one late tick does not shift the whole train), so
// protocol timers above stay coarse-grained correct; both the skew events
// and the compensations are counted.

#ifndef OSKIT_SRC_MACHINE_PIT_H_
#define OSKIT_SRC_MACHINE_PIT_H_

#include "src/fault/fault.h"
#include "src/machine/clock.h"
#include "src/machine/pic.h"
#include "src/trace/counters.h"

namespace oskit {

class Pit {
 public:
  static constexpr int kIrq = 0;

  Pit(SimClock* clock, Pic* pic) : clock_(clock), pic_(pic) {}
  ~Pit() { Stop(); }

  // Programs the tick rate and starts periodic IRQ 0 delivery.
  void Start(uint32_t hz);
  void Stop();

  void SetFaultEnv(fault::FaultEnv* env) { fault_ = env; }

  bool running() const { return running_; }
  uint32_t hz() const { return hz_; }
  uint64_t ticks() const { return ticks_; }

  trace::Counter& skew_events_counter() { return skew_events_; }
  trace::Counter& skew_compensations_counter() { return skew_compensations_; }
  uint64_t skew_events() const { return skew_events_; }
  uint64_t skew_compensations() const { return skew_compensations_; }

 private:
  void Tick();

  SimClock* clock_;
  Pic* pic_;
  bool running_ = false;
  uint32_t hz_ = 0;
  SimTime period_ns_ = 0;
  uint64_t ticks_ = 0;
  int64_t drift_ns_ = 0;  // how far the tick train is ahead (+) of nominal
  SimClock::EventId pending_event_ = SimClock::kInvalidEvent;
  trace::Counter skew_events_;
  trace::Counter skew_compensations_;
  fault::FaultEnv* fault_ = nullptr;  // null: nothing armed
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_PIT_H_
