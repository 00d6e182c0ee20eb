// Cooperative fibers: the simulation's "process-level threads of control".
//
// The OSKit's execution model (§4.7.4) has many process-level threads with
// separate stacks, only one running at a time, switching only at well-defined
// blocking points.  Fibers give the simulated world exactly that model:
// kernel mains, ttcp sender/receiver loops and VM green threads each run on a
// fiber; blocking primitives (sleep records, socket waits) park the current
// fiber and hand control to the scheduler, which runs other runnable fibers
// or advances the simulated clock (delivering "hardware" events) when all
// fibers are blocked.
//
// Each stack is its own mapping with a PROT_NONE guard page below it, so a
// fiber that overruns its stack faults at once instead of corrupting
// whatever lies beneath.  A finished fiber's stack goes back to a small
// cache, newest first, and the next Spawn takes it with its pages already
// faulted in.  The cache is per thread, shared by every scheduler on it, so
// a world built per operation starts warm.

#ifndef OSKIT_SRC_MACHINE_FIBER_H_
#define OSKIT_SRC_MACHINE_FIBER_H_

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace oskit {

class FiberScheduler;

class Fiber {
 public:
  enum class State {
    kRunnable,  // queued for execution
    kRunning,   // currently on the CPU
    kBlocked,   // parked on a blocking primitive
    kDone,      // entry function returned
  };

  const std::string& name() const { return name_; }
  State state() const { return state_; }

 private:
  friend class FiberScheduler;

  Fiber(std::string name, std::function<void()> entry)
      : name_(std::move(name)), entry_(std::move(entry)) {}

  std::string name_;
  std::function<void()> entry_;
  // The stack: FiberScheduler::kDefaultStackSize bytes up from this
  // page-aligned base, with the guard page just below it.  A recycled stack
  // keeps its previous fiber's bytes: a fiber writes its stack before
  // reading it.
  uint8_t* stack_ = nullptr;
  ucontext_t context_;
  void* asan_fake_stack_ = nullptr;  // parked while switched out (ASan only)
  State state_ = State::kRunnable;
  FiberScheduler* scheduler_ = nullptr;
};

class FiberScheduler {
 public:
  FiberScheduler() = default;
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;
  // Unmaps the stacks of fibers that never finished.
  ~FiberScheduler();

  // Every fiber's stack size.
  static constexpr size_t kDefaultStackSize = 256 * 1024;

  // Creates a fiber and queues it runnable.  The returned pointer stays valid
  // until the fiber completes and the scheduler reaps it.
  Fiber* Spawn(std::string name, std::function<void()> entry);

  // Runs runnable fibers (FIFO) until the run queue is empty.  Must be called
  // from the scheduler context (not from inside a fiber).
  void RunReady();

  // Parks the calling fiber.  Control returns when some other context calls
  // Unblock() on it and the scheduler re-runs it.
  void BlockCurrent();

  // Makes a blocked fiber runnable.  Callable from events/interrupt handlers
  // (i.e., from scheduler context) or from other fibers.
  void Unblock(Fiber* fiber);

  Fiber* current() const { return current_; }
  size_t live_count() const { return live_count_; }

 private:
  static void Trampoline();

  void SwitchTo(Fiber* fiber);
  // Parks the running fiber `self` and resumes the scheduler context.
  void SwitchOut(Fiber* self);

  ucontext_t scheduler_context_ = {};
  // ASan only: the stack RunReady runs on, as the last fiber switched in
  // reported it, and that context's fake stack while a fiber runs.
  const void* scheduler_stack_bottom_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  void* scheduler_fake_stack_ = nullptr;
  Fiber* current_ = nullptr;
  std::vector<Fiber*> run_queue_;  // FIFO: the next round of RunReady
  std::vector<Fiber*> running_;    // the round RunReady is running
  std::vector<std::unique_ptr<Fiber>> fibers_;
  size_t live_count_ = 0;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_FIBER_H_
