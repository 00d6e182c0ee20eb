#include "src/machine/fiber.h"

#include "src/base/panic.h"

namespace oskit {
namespace {

// makecontext() can only pass ints to the trampoline portably, so the target
// fiber is handed over through this slot instead.
thread_local Fiber* g_trampoline_target = nullptr;
thread_local FiberScheduler* g_trampoline_scheduler = nullptr;

}  // namespace

Fiber::Fiber(std::string name, std::function<void()> entry, size_t stack_size)
    : name_(std::move(name)),
      entry_(std::move(entry)),
      stack_(std::make_unique_for_overwrite<uint8_t[]>(stack_size)),
      stack_size_(stack_size) {}

Fiber* FiberScheduler::Spawn(std::string name, std::function<void()> entry,
                             size_t stack_size) {
  auto fiber = std::unique_ptr<Fiber>(
      new Fiber(std::move(name), std::move(entry), stack_size));
  Fiber* raw = fiber.get();
  raw->scheduler_ = this;
  getcontext(&raw->context_);
  raw->context_.uc_stack.ss_sp = raw->stack_.get();
  raw->context_.uc_stack.ss_size = raw->stack_size_;
  raw->context_.uc_link = &scheduler_context_;
  // The target is latched in SwitchTo just before the first switch.
  makecontext(&raw->context_, &FiberScheduler::Trampoline, 0);
  fibers_.push_back(std::move(fiber));
  ++live_count_;
  run_queue_.push_back(raw);
  return raw;
}

void FiberScheduler::Trampoline() {
  Fiber* self = g_trampoline_target;
  self->entry_();
  self->state_ = Fiber::State::kDone;
  --self->scheduler_->live_count_;
  // uc_link returns control to the scheduler context.
}

void FiberScheduler::SwitchTo(Fiber* fiber) {
  OSKIT_ASSERT_MSG(current_ == nullptr, "nested SwitchTo from fiber context");
  fiber->state_ = Fiber::State::kRunning;
  current_ = fiber;
  g_trampoline_target = fiber;
  g_trampoline_scheduler = this;
  swapcontext(&scheduler_context_, &fiber->context_);
  current_ = nullptr;
}

void FiberScheduler::RunReady() {
  OSKIT_ASSERT_MSG(current_ == nullptr, "RunReady called from inside a fiber");
  while (!run_queue_.empty()) {
    Fiber* next = run_queue_.front();
    run_queue_.pop_front();
    if (next->state_ != Fiber::State::kRunnable) {
      continue;
    }
    SwitchTo(next);
    if (next->state_ == Fiber::State::kDone) {
      // Reap: fibers are few and short-lived enough for a linear sweep.
      for (auto it = fibers_.begin(); it != fibers_.end(); ++it) {
        if (it->get() == next) {
          fibers_.erase(it);
          break;
        }
      }
    }
  }
}

void FiberScheduler::BlockCurrent() {
  Fiber* self = current_;
  OSKIT_ASSERT_MSG(self != nullptr, "BlockCurrent outside any fiber");
  self->state_ = Fiber::State::kBlocked;
  swapcontext(&self->context_, &scheduler_context_);
  // Resumed: Unblock() marked us runnable and RunReady() switched back.
  OSKIT_ASSERT(self->state_ == Fiber::State::kRunning);
}

void FiberScheduler::Unblock(Fiber* fiber) {
  OSKIT_ASSERT(fiber != nullptr);
  if (fiber->state_ == Fiber::State::kBlocked) {
    fiber->state_ = Fiber::State::kRunnable;
    run_queue_.push_back(fiber);
  }
}

void FiberScheduler::YieldCurrent() {
  Fiber* self = current_;
  OSKIT_ASSERT_MSG(self != nullptr, "YieldCurrent outside any fiber");
  self->state_ = Fiber::State::kRunnable;
  run_queue_.push_back(self);
  swapcontext(&self->context_, &scheduler_context_);
  OSKIT_ASSERT(self->state_ == Fiber::State::kRunning);
}

}  // namespace oskit
