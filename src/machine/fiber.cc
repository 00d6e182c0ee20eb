#include "src/machine/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include "src/base/asan.h"
#include "src/base/panic.h"

namespace oskit {
namespace {

// makecontext() can only pass ints to the trampoline portably, so the target
// fiber is handed over through this slot instead.
thread_local Fiber* g_trampoline_target = nullptr;

size_t Page() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

constexpr size_t kStackSize = FiberScheduler::kDefaultStackSize;

// Clears the shadow too, or a later mapping at this address inherits it.
void Unmap(uint8_t* stack) {
  ASAN_UNPOISON_MEMORY_REGION(stack, kStackSize);
  munmap(stack - Page(), kStackSize + Page());
}

// Finished fibers' stacks, newest last, kept for this thread's next Spawn.
struct StackCache {
  static constexpr size_t kMax = 64;
  std::vector<uint8_t*> stacks;
  ~StackCache() {
    for (uint8_t* stack : stacks) {
      Unmap(stack);
    }
  }
};
thread_local StackCache g_stack_cache;

uint8_t* TakeStack() {
  if (!g_stack_cache.stacks.empty()) {
    uint8_t* stack = g_stack_cache.stacks.back();
    g_stack_cache.stacks.pop_back();
    // A fiber that died blocked never unwound: its frames' redzones are
    // still poisoned.
    ASAN_UNPOISON_MEMORY_REGION(stack, kStackSize);
    return stack;
  }
  const int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK;
  auto* region = static_cast<uint8_t*>(
      mmap(nullptr, kStackSize + Page(), PROT_READ | PROT_WRITE, flags, -1, 0));
  OSKIT_ASSERT_MSG(region != MAP_FAILED && mprotect(region, Page(), PROT_NONE) == 0,
                   "cannot map a guarded fiber stack");
  return region + Page();
}

}  // namespace

FiberScheduler::~FiberScheduler() {
  for (const auto& fiber : fibers_) {
    Unmap(fiber->stack_);
  }
}

Fiber* FiberScheduler::Spawn(std::string name, std::function<void()> entry) {
  auto fiber = std::unique_ptr<Fiber>(new Fiber(std::move(name), std::move(entry)));
  Fiber* raw = fiber.get();
  raw->scheduler_ = this;
  raw->stack_ = TakeStack();
  getcontext(&raw->context_);
  raw->context_.uc_stack.ss_sp = raw->stack_;
  raw->context_.uc_stack.ss_size = kStackSize;
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
  FiberScheduler* scheduler = self->scheduler_;
  OSKIT_ASAN_FINISH_SWITCH_FIBER(nullptr, &scheduler->scheduler_stack_bottom_,
                                 &scheduler->scheduler_stack_size_);
  self->entry_();
  self->state_ = Fiber::State::kDone;
  --scheduler->live_count_;
  // uc_link returns control to the scheduler context; this fiber never
  // comes back, so its fake stack is not parked.
  OSKIT_ASAN_START_SWITCH_FIBER(nullptr, scheduler->scheduler_stack_bottom_,
                                scheduler->scheduler_stack_size_);
}

void FiberScheduler::SwitchTo(Fiber* fiber) {
  OSKIT_ASSERT_MSG(current_ == nullptr, "nested SwitchTo from fiber context");
  fiber->state_ = Fiber::State::kRunning;
  current_ = fiber;
  g_trampoline_target = fiber;
  OSKIT_ASAN_START_SWITCH_FIBER(&scheduler_fake_stack_, fiber->stack_, kStackSize);
  swapcontext(&scheduler_context_, &fiber->context_);
  OSKIT_ASAN_FINISH_SWITCH_FIBER(scheduler_fake_stack_, nullptr, nullptr);
  current_ = nullptr;
}

void FiberScheduler::SwitchOut(Fiber* self) {
  OSKIT_ASAN_START_SWITCH_FIBER(&self->asan_fake_stack_, scheduler_stack_bottom_,
                                scheduler_stack_size_);
  swapcontext(&self->context_, &scheduler_context_);
  OSKIT_ASAN_FINISH_SWITCH_FIBER(self->asan_fake_stack_, &scheduler_stack_bottom_,
                                 &scheduler_stack_size_);
}

void FiberScheduler::RunReady() {
  OSKIT_ASSERT_MSG(current_ == nullptr, "RunReady called from inside a fiber");
  // A round runs, in order, the fibers queued before it began; the ones it
  // queues wait for the next.  Both vectors keep their capacity, so a warm
  // scheduler queues without allocating.
  while (!run_queue_.empty()) {
    running_.swap(run_queue_);
    for (Fiber* next : running_) {
      if (next->state_ != Fiber::State::kRunnable) {
        continue;
      }
      SwitchTo(next);
      if (next->state_ == Fiber::State::kDone) {
        // Reap: fibers are few and short-lived enough for a linear sweep.
        // The stack goes back to the cache, or past its high-water mark away.
        if (g_stack_cache.stacks.size() < StackCache::kMax) {
          g_stack_cache.stacks.push_back(next->stack_);
        } else {
          Unmap(next->stack_);
        }
        std::erase_if(fibers_, [next](const auto& fiber) { return fiber.get() == next; });
      }
    }
    running_.clear();
  }
}

void FiberScheduler::BlockCurrent() {
  Fiber* self = current_;
  OSKIT_ASSERT_MSG(self != nullptr, "BlockCurrent outside any fiber");
  self->state_ = Fiber::State::kBlocked;
  SwitchOut(self);
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

}  // namespace oskit
