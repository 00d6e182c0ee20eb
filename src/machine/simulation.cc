#include "src/machine/simulation.h"

#include "src/base/panic.h"

namespace oskit {

Simulation::RunResult Simulation::Run(SimTime deadline) {
  OSKIT_ASSERT_MSG(scheduler_.current() == nullptr, "Run() called from a fiber");
  for (;;) {
    scheduler_.RunReady();
    if (!waiters_.empty() && WakeWaiters()) {
      continue;
    }
    if (scheduler_.live_count() == 0) {
      return RunResult::kAllDone;
    }
    SimTime next = clock_.NextEventTime();
    if (next == ~static_cast<SimTime>(0)) {
      return RunResult::kDeadlock;
    }
    if (next > deadline) {
      return RunResult::kDeadline;
    }
    clock_.RunOne();
  }
}

void Simulation::SleepFor(SimTime ns) {
  Fiber* self = scheduler_.current();
  OSKIT_ASSERT_MSG(self != nullptr, "SleepFor outside any fiber");
  clock_.ScheduleAfter(ns, [this, self] { scheduler_.Unblock(self); });
  scheduler_.BlockCurrent();
}

void Simulation::WaitUntil(const std::function<bool()>& pred) {
  if (pred()) {
    return;
  }
  Fiber* self = scheduler_.current();
  OSKIT_ASSERT_MSG(self != nullptr, "WaitUntil outside any fiber");
  waiters_.push_back({self, &pred});
  scheduler_.BlockCurrent();
}

bool Simulation::WakeWaiters() {
  size_t before = waiters_.size();
  std::erase_if(waiters_, [this](const Waiter& w) {
    if (!(*w.pred)()) {
      return false;
    }
    scheduler_.Unblock(w.fiber);
    return true;
  });
  return waiters_.size() != before;
}

}  // namespace oskit
