#include "src/machine/pit.h"

#include <algorithm>
#include <utility>

namespace oskit {

void Pit::Start(uint32_t hz) {
  OSKIT_ASSERT(hz > 0);
  Stop();
  hz_ = hz;
  period_ns_ = kNsPerSec / hz;
  OSKIT_ASSERT(period_ns_ > 0);
  running_ = true;
  drift_ns_ = 0;
  pending_event_ = clock_->ScheduleAfter(period_ns_, [this] { Tick(); });
}

void Pit::Stop() {
  clock_->Cancel(std::exchange(pending_event_, SimClock::kInvalidEvent));
  running_ = false;
}

void Pit::Tick() {
  if (!running_) {
    return;
  }
  ++ticks_;
  SimTime period = period_ns_;
  if (fault::ShouldFail(fault_, "pit.skew")) {
    // Oscillator wander: this tick's successor lands early or late by
    // arg% (default 20%) of the nominal period.
    uint64_t pct = fault_->SiteArg("pit.skew");
    if (pct == 0 || pct > 90) {
      pct = 20;
    }
    int64_t delta = static_cast<int64_t>(period_ns_ * pct / 100);
    if (fault_->rng().Percent(50)) {
      delta = -delta;
    }
    period = static_cast<SimTime>(static_cast<int64_t>(period) + delta);
    drift_ns_ += delta;
    ++skew_events_;
  } else if (drift_ns_ != 0) {
    // Steer back toward the nominal tick train, at most half a period per
    // tick so the interval never collapses or doubles.
    int64_t limit = static_cast<int64_t>(period_ns_ / 2);
    int64_t correction = std::clamp(-drift_ns_, -limit, limit);
    period = static_cast<SimTime>(static_cast<int64_t>(period) + correction);
    drift_ns_ += correction;
    ++skew_compensations_;
  }
  // Schedule the next tick before raising the IRQ so a handler that stops
  // the timer cancels the right event.
  pending_event_ = clock_->ScheduleAfter(period, [this] { Tick(); });
  pic_->RaiseIrq(kIrq);
}

}  // namespace oskit
