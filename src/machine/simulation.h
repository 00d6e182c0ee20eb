// The simulation "world": one shared clock plus one fiber scheduler.
//
// A world holds everything that exists outside any single simulated PC — the
// clock, the Ethernet segment, and the process-level threads of every machine
// in the experiment.  Running the world interleaves fiber execution with
// clock events until everything completes, deadlocks, or a deadline passes.

#ifndef OSKIT_SRC_MACHINE_SIMULATION_H_
#define OSKIT_SRC_MACHINE_SIMULATION_H_

#include <functional>
#include <vector>

#include "src/machine/clock.h"
#include "src/machine/fiber.h"

namespace oskit {

class Simulation {
 public:
  enum class RunResult {
    kAllDone,    // every fiber ran to completion
    kDeadlock,   // live fibers remain but nothing can make progress
    kDeadline,   // the deadline passed first
  };

  SimClock& clock() { return clock_; }
  FiberScheduler& scheduler() { return scheduler_; }

  Fiber* Spawn(std::string name, std::function<void()> entry) {
    return scheduler_.Spawn(std::move(name), std::move(entry));
  }

  // Drives the world: runs runnable fibers, wakes WaitUntil waiters whose
  // predicates now hold, then runs clock events, until all fibers finish,
  // nothing can unblock anyone, or `deadline` is reached.  Must be called
  // from outside any fiber.
  RunResult Run(SimTime deadline = ~static_cast<SimTime>(0));

  // ---- Fiber-side conveniences (call only from inside a fiber) ----

  // Blocks the calling fiber for `ns` of simulated time.
  void SleepFor(SimTime ns);

  // Blocks the calling fiber until `pred` holds; returns at once if it
  // already does.  `pred` must be a side-effect-free read that stays true
  // once true (a flag, a non-null check, a counter that only grows).  Run
  // checks it whenever the runnable fibers have drained, before the next
  // clock event, so the waiter resumes at the simulated instant its
  // predicate became true.  Waiters released together resume in the order
  // they started waiting.  Producers need not notify anyone.
  void WaitUntil(const std::function<bool()>& pred);

 private:
  struct Waiter {
    Fiber* fiber;
    const std::function<bool()>* pred;  // lives on the waiter's stack
  };

  // Unblocks, in registration order, every waiter whose predicate holds.
  // Returns true if any woke.
  bool WakeWaiters();

  SimClock clock_;
  FiberScheduler scheduler_;
  std::vector<Waiter> waiters_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_SIMULATION_H_
