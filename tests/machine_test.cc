// Simulated-platform tests: clock, fibers, CPU trap/interrupt model, PIC,
// PIT, UART, the Ethernet hub and switch (with fault injection), the
// switch's frame pool, and the disk.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/machine/machine.h"
#include "src/machine/switch.h"

// Calls to the global operator new in this test binary (tests/new_counter.cc),
// so the clock tests can show that scheduling and running an event allocates
// nothing.
size_t GlobalNewCalls();

namespace oskit {
namespace {

// A contiguous frame is a one-chunk gather list.
void SendFrame(VirtualSwitch& fabric, WireEndpoint* source, const uint8_t* frame,
               size_t len) {
  fabric.Transmit(source, &frame, &len, 1);
}
void SendFrame(NicHw& nic, const uint8_t* frame, size_t len) {
  nic.TxStart(&frame, &len, 1);
}

TEST(ClockTest, EventsRunInTimeThenFifoOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.ScheduleAt(100, [&] { order.push_back(2); });
  clock.ScheduleAt(50, [&] { order.push_back(1); });
  clock.ScheduleAt(100, [&] { order.push_back(3); });  // same time: FIFO
  while (clock.RunOne()) {
  }
  EXPECT_EQ((std::vector<int>{1, 2, 3}), order);
  EXPECT_EQ(100u, clock.Now());
}

TEST(ClockTest, CancelPreventsExecution) {
  SimClock clock;
  int fired = 0;
  auto id = clock.ScheduleAfter(10, [&] { ++fired; });
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_FALSE(clock.Cancel(id));  // already cancelled
  while (clock.RunOne()) {
  }
  EXPECT_EQ(0, fired);
}

TEST(ClockTest, RunUntilAdvancesToDeadline) {
  SimClock clock;
  int fired = 0;
  clock.ScheduleAt(500, [&] { ++fired; });
  clock.ScheduleAt(1500, [&] { ++fired; });
  clock.RunUntil(1000);
  EXPECT_EQ(1, fired);
  EXPECT_EQ(1000u, clock.Now());
  EXPECT_TRUE(clock.HasPending());
}

TEST(ClockTest, EventsScheduledInsideEventsRun) {
  SimClock clock;
  int depth = 0;
  clock.ScheduleAfter(1, [&] {
    clock.ScheduleAfter(1, [&] { depth = 2; });
    depth = 1;
  });
  while (clock.RunOne()) {
  }
  EXPECT_EQ(2, depth);
}

TEST(ClockTest, CancelFailsForRanCancelledAndStaleIds) {
  SimClock clock;
  int fired = 0;
  SimClock::EventId ran = clock.ScheduleAfter(10, [&] { ++fired; });
  EXPECT_TRUE(clock.RunOne());
  EXPECT_FALSE(clock.Cancel(ran));  // already ran

  SimClock::EventId cancelled = clock.ScheduleAfter(10, [&] { ++fired; });
  EXPECT_TRUE(clock.Cancel(cancelled));
  EXPECT_FALSE(clock.Cancel(cancelled));  // already cancelled

  // The freed slot is reused under a new generation: the old ids name the
  // same slot but must not cancel its new occupant.
  SimClock::EventId reused = clock.ScheduleAfter(10, [&] { ++fired; });
  EXPECT_EQ(static_cast<uint32_t>(cancelled), static_cast<uint32_t>(reused));
  EXPECT_NE(cancelled, reused);
  EXPECT_FALSE(clock.Cancel(cancelled));
  EXPECT_FALSE(clock.Cancel(ran));
  EXPECT_FALSE(clock.Cancel(SimClock::kInvalidEvent));
  EXPECT_TRUE(clock.HasPending());
  EXPECT_TRUE(clock.RunOne());
  EXPECT_EQ(2, fired);
  EXPECT_FALSE(clock.HasPending());
}

TEST(ClockTest, CancelFromInsideTheRunningEventFails) {
  SimClock clock;
  SimClock::EventId self = SimClock::kInvalidEvent;
  bool cancelled = true;
  self = clock.ScheduleAfter(1, [&] { cancelled = clock.Cancel(self); });
  EXPECT_TRUE(clock.RunOne());
  EXPECT_FALSE(cancelled);
}

TEST(ClockTest, SameTimeEventsRunInScheduleOrderWhileTheTableGrows) {
  // One event at t=10 schedules 1,000 events at t=20 while it runs, growing
  // the slot table several times over; the 1,000 must run after the events
  // already scheduled for t=20, in the order they were scheduled.  The
  // running callback's own capture must survive the growth.
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.ScheduleAt(20, [&order, i] { order.push_back(i); });
  }
  std::array<int, 6> tag = {1, 2, 3, 4, 5, 6};
  int tag_sum = 0;
  clock.ScheduleAt(10, [&clock, &order, &tag_sum, tag] {
    for (int i = 0; i < 1000; ++i) {
      clock.ScheduleAt(20, [&order, i] { order.push_back(5 + i); });
    }
    for (int t : tag) {
      tag_sum += t;
    }
  });
  for (int i = 1005; i < 1010; ++i) {
    clock.ScheduleAt(20, [&order, i] { order.push_back(i); });
  }
  clock.RunUntil(20);
  EXPECT_EQ(21, tag_sum);
  ASSERT_EQ(1010u, order.size());
  // Scheduled from inside the t=10 event, hence after 1005..1009.
  std::vector<int> expected;
  for (int i = 0; i < 5; ++i) {
    expected.push_back(i);
  }
  for (int i = 1005; i < 1010; ++i) {
    expected.push_back(i);
  }
  for (int i = 5; i < 1005; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(expected, order);
  EXPECT_FALSE(clock.HasPending());
}

// A move-only capture that counts how often a live (not moved-from) copy of
// it is destroyed.
class DtorCount {
 public:
  explicit DtorCount(int* count) : count_(count) {}
  DtorCount(DtorCount&& other) noexcept : count_(std::exchange(other.count_, nullptr)) {}
  DtorCount(const DtorCount&) = delete;
  DtorCount& operator=(const DtorCount&) = delete;
  DtorCount& operator=(DtorCount&&) = delete;
  ~DtorCount() {
    if (count_ != nullptr) {
      ++*count_;
    }
  }

 private:
  int* count_;
};

TEST(ClockTest, CaptureIsDestroyedOnceWhenRunCancelledOrPending) {
  int ran_dtors = 0;
  int cancelled_dtors = 0;
  int pending_dtors = 0;
  int runs = 0;
  {
    SimClock clock;
    clock.ScheduleAfter(1, [d = DtorCount(&ran_dtors), &runs] { ++runs; });
    SimClock::EventId id =
        clock.ScheduleAfter(2, [d = DtorCount(&cancelled_dtors), &runs] { ++runs; });
    clock.ScheduleAfter(3, [d = DtorCount(&pending_dtors), &runs] { ++runs; });
    EXPECT_EQ(0, ran_dtors + cancelled_dtors + pending_dtors);

    EXPECT_TRUE(clock.Cancel(id));
    EXPECT_EQ(1, cancelled_dtors);
    EXPECT_FALSE(clock.Cancel(id));
    EXPECT_TRUE(clock.RunOne());
    EXPECT_EQ(1, ran_dtors);
    clock.RunUntil(2);  // passes the cancelled event's stale heap entry
    EXPECT_EQ(1, runs);
    EXPECT_EQ(0, pending_dtors);
  }
  EXPECT_EQ(1, ran_dtors);
  EXPECT_EQ(1, cancelled_dtors);
  EXPECT_EQ(1, pending_dtors);
  EXPECT_EQ(1, runs);
}

TEST(ClockTest, EventsAllocateNothingOnceTheTablesHaveGrown) {
  SimClock clock;
  uint64_t sum = 0;
  std::array<uint64_t, 6> payload = {1, 2, 3, 4, 5, 6};  // a 56-byte capture
  auto schedule_batch = [&] {
    for (int i = 0; i < 300; ++i) {
      SimClock::EventId id = clock.ScheduleAfter(static_cast<SimTime>(i % 7),
                                                 [&sum, payload] { sum += payload[5]; });
      if (i % 3 == 0) {
        clock.Cancel(id);
      }
    }
    while (clock.RunOne()) {
    }
  };
  schedule_batch();  // grows the slot table, heap and free list
  size_t before = GlobalNewCalls();
  for (int round = 0; round < 20; ++round) {
    schedule_batch();
  }
  EXPECT_EQ(before, GlobalNewCalls());
  EXPECT_EQ(21u * 200u * 6u, sum);
}

TEST(FiberTest, SpawnRunsToCompletion) {
  Simulation sim;
  bool ran = false;
  sim.Spawn("t", [&] { ran = true; });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_TRUE(ran);
}

TEST(FiberTest, SleepForAdvancesSimTime) {
  Simulation sim;
  SimTime woke_at = 0;
  sim.Spawn("sleeper", [&] {
    sim.SleepFor(250);
    woke_at = sim.clock().Now();
  });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_EQ(250u, woke_at);
}

TEST(FiberTest, ManyFibersInterleaveDeterministically) {
  Simulation sim;
  std::string trace;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("f", [&, i] {
      for (int k = 0; k < 3; ++k) {
        trace.push_back(static_cast<char>('a' + i));
        sim.scheduler().YieldCurrent();
      }
    });
  }
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_EQ("abcabcabc", trace);
}

TEST(FiberTest, DeadlockIsDetected) {
  Simulation sim;
  sim.Spawn("stuck", [&] { sim.scheduler().BlockCurrent(); });
  EXPECT_EQ(Simulation::RunResult::kDeadlock, sim.Run());
}

TEST(FiberTest, BlockAndUnblockFromEvent) {
  Simulation sim;
  bool resumed = false;
  Fiber* fiber = sim.Spawn("blocked", [&] {
    sim.scheduler().BlockCurrent();
    resumed = true;
  });
  sim.clock().ScheduleAfter(100, [&] { sim.scheduler().Unblock(fiber); });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_TRUE(resumed);
}

TEST(FiberTest, WaitUntilWakesAtTheEventThatMadeItTrue) {
  Simulation sim;
  bool flag = false;
  SimTime woke_at = 0;
  sim.Spawn("waiter", [&] {
    sim.WaitUntil([&] { return flag; });
    woke_at = sim.clock().Now();
  });
  sim.clock().ScheduleAt(1500, [&] { flag = true; });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_EQ(1500u, woke_at);
  EXPECT_LE(sim.clock().events_run(), 2u);
}

TEST(FiberTest, WaitUntilWakesOnAFlagSetByAnotherFiber) {
  Simulation sim;
  bool flag = false;
  SimTime set_at = 0;
  SimTime woke_at = 0;
  sim.Spawn("waiter", [&] {
    sim.WaitUntil([&] { return flag; });
    woke_at = sim.clock().Now();
  });
  sim.Spawn("setter", [&] {
    set_at = sim.clock().Now();
    flag = true;
  });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_EQ(set_at, woke_at);
  EXPECT_EQ(0u, sim.clock().events_run());
}

TEST(FiberTest, WaitUntilReleasesWaitersInRegistrationOrder) {
  Simulation sim;
  int count = 0;
  std::string order;
  std::vector<SimTime> woke_at;
  // Spawned a, b, c but registered c, b, a: registration order wins.
  for (int i = 0; i < 3; ++i) {
    sim.Spawn("waiter", [&, i] {
      sim.SleepFor(static_cast<SimTime>(2 - i) * 300);
      sim.WaitUntil([&] { return count > 0; });
      order.push_back(static_cast<char>('a' + i));
      woke_at.push_back(sim.clock().Now());
    });
  }
  sim.clock().ScheduleAt(1500, [&] { ++count; });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_EQ("cba", order);
  EXPECT_EQ((std::vector<SimTime>{1500, 1500, 1500}), woke_at);
}

TEST(FiberTest, WaitUntilThatNeverHoldsIsADeadlock) {
  Simulation sim;
  bool reached = false;
  sim.Spawn("waiter", [&] {
    sim.WaitUntil([] { return false; });
    reached = true;
  });
  EXPECT_EQ(Simulation::RunResult::kDeadlock, sim.Run(kNsPerSec));
  EXPECT_EQ(0u, sim.clock().events_run());
  EXPECT_FALSE(reached);
}

TEST(FiberTest, WaitUntilAlreadyTrueDoesNotBlock) {
  Simulation sim;
  std::string order;
  sim.Spawn("first", [&] {
    sim.WaitUntil([] { return true; });
    order.push_back('a');
  });
  sim.Spawn("second", [&] { order.push_back('b'); });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  EXPECT_EQ("ab", order);
}

// Each call pins a 512-byte frame across the next, so the recursion cannot
// become a loop and walks the stack down a page every eight calls.
[[gnu::noinline]] void Overrun(int depth) {
  uint8_t frame[512];
  memset(frame, depth, sizeof(frame));
  asm volatile("" : : "r"(frame) : "memory");
  if (depth > 0) {
    Overrun(depth - 1);
  }
  asm volatile("" : : "r"(frame) : "memory");
}

uintptr_t g_fiber_top = 0;  // a frame address near the overrunning fiber's top

// Runs on the alternate stack: the fiber's own is gone.  A fault on the
// guard page is an access error (the page is mapped PROT_NONE) just below
// the stack's lowest byte.
void OnOverrunFault(int /*sig*/, siginfo_t* info, void* /*ctx*/) {
  auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
  uintptr_t bottom = g_fiber_top - FiberScheduler::kDefaultStackSize;
  bool guard = info->si_code == SEGV_ACCERR && addr + 2 * 4096 > bottom &&
               addr < bottom + 2 * 4096;
  const char* msg = guard ? "fault on the guard page\n" : "fault elsewhere\n";
  [[maybe_unused]] ssize_t n = write(2, msg, strlen(msg));
  _exit(guard ? 3 : 4);
}

TEST(FiberDeathTest, StackOverrunFaultsOnTheGuardPage) {
  EXPECT_EXIT(
      {
        static uint8_t alt_stack[64 * 1024];
        stack_t ss = {};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof(alt_stack);
        sigaltstack(&ss, nullptr);
        struct sigaction sa = {};
        sa.sa_sigaction = &OnOverrunFault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        Simulation sim;
        sim.scheduler().Spawn("deep", [] {
          g_fiber_top = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
          Overrun(1 << 20);
        });
        sim.Run();
      },
      ::testing::ExitedWithCode(3), "fault on the guard page");
}

TEST(FiberTest, FinishedFibersStacksAreReusedNewestFirst) {
  Simulation sim;
  std::vector<uintptr_t> tops;
  auto record = [&] {
    tops.push_back(reinterpret_cast<uintptr_t>(__builtin_frame_address(0)));
  };
  sim.Spawn("a", record);
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  sim.Spawn("b", record);
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  ASSERT_EQ(2u, tops.size());
  EXPECT_EQ(tops[0], tops[1]);  // b ran on a's recycled stack
}

TEST(CpuTest, TrapDispatchesToHandlerWithFallbackChain) {
  Cpu cpu;
  int custom = 0;
  int fallback = 0;
  cpu.SetFallback(kTrapPageFault, [&](TrapFrame&) {
    ++fallback;
    return true;
  });
  // §6.2.4: a custom handler that declines traps it doesn't care about.
  cpu.SetVector(kTrapPageFault, [&](TrapFrame& frame) {
    if (frame.error_code == 0x42) {
      ++custom;
      return true;
    }
    return false;
  });
  cpu.RaiseTrap(kTrapPageFault, 0x42);
  EXPECT_EQ(1, custom);
  EXPECT_EQ(0, fallback);
  cpu.RaiseTrap(kTrapPageFault, 0x1);
  EXPECT_EQ(1, custom);
  EXPECT_EQ(1, fallback);
  EXPECT_EQ(2u, cpu.traps_dispatched());
}

TEST(CpuTest, InterruptsPendWhileDisabled) {
  Cpu cpu;
  int delivered = 0;
  cpu.SetVector(kIrqBaseVector, [&](TrapFrame&) {
    ++delivered;
    return true;
  });
  cpu.RaiseInterrupt(kIrqBaseVector);
  EXPECT_EQ(0, delivered);  // interrupts start disabled
  cpu.EnableInterrupts();
  EXPECT_EQ(1, delivered);
  cpu.RaiseInterrupt(kIrqBaseVector);
  EXPECT_EQ(2, delivered);
}

TEST(CpuTest, NoNestedInterrupts) {
  Cpu cpu;
  std::vector<int> order;
  cpu.SetVector(kIrqBaseVector, [&](TrapFrame&) {
    order.push_back(1);
    // Raising another IRQ inside the handler must defer it.
    cpu.RaiseInterrupt(kIrqBaseVector + 1);
    order.push_back(2);
    return true;
  });
  cpu.SetVector(kIrqBaseVector + 1, [&](TrapFrame&) {
    order.push_back(3);
    return true;
  });
  cpu.EnableInterrupts();
  cpu.RaiseInterrupt(kIrqBaseVector);
  EXPECT_EQ((std::vector<int>{1, 2, 3}), order);
}

TEST(PicTest, MaskingLatchesAndUnmaskDelivers) {
  Cpu cpu;
  cpu.EnableInterrupts();
  int delivered = 0;
  cpu.SetVector(kIrqBaseVector + 5, [&](TrapFrame&) {
    ++delivered;
    return true;
  });
  Pic pic(&cpu);
  pic.RaiseIrq(5);  // masked at reset: latched
  EXPECT_EQ(0, delivered);
  pic.Unmask(5);
  EXPECT_EQ(1, delivered);  // pending edge delivered on unmask
  pic.RaiseIrq(5);
  EXPECT_EQ(2, delivered);
  EXPECT_EQ(2u, pic.raised_count(5));
}

TEST(PitTest, PeriodicTicks) {
  Simulation sim;
  Machine::Config config;
  Machine machine(&sim, config);
  machine.cpu().EnableInterrupts();
  int ticks = 0;
  machine.cpu().SetVector(kIrqBaseVector + Pit::kIrq, [&](TrapFrame&) {
    ++ticks;
    return true;
  });
  machine.pic().Unmask(Pit::kIrq);
  machine.pit().Start(100);  // 10 ms period
  sim.clock().RunUntil(105 * kNsPerMs);
  EXPECT_EQ(10, ticks);
  machine.pit().Stop();
  sim.clock().RunUntil(200 * kNsPerMs);
  EXPECT_EQ(10, ticks);
}

TEST(UartTest, LoopbackBetweenPeers) {
  Cpu cpu;
  Pic pic(&cpu);
  Uart a(&pic, 4);
  Uart b(&pic, 3);
  a.ConnectPeer(&b);
  a.WriteByte('h');
  a.WriteByte('i');
  ASSERT_TRUE(b.RxReady());
  EXPECT_EQ('h', b.ReadByte());
  EXPECT_EQ('i', b.ReadByte());
  EXPECT_FALSE(b.RxReady());
  b.WriteByte('!');
  EXPECT_EQ('!', a.ReadByte());
}

TEST(UartTest, UnconnectedCapturesOutput) {
  Cpu cpu;
  Pic pic(&cpu);
  Uart uart(&pic);
  uart.WriteByte('o');
  uart.WriteByte('k');
  EXPECT_EQ("ok", uart.TakeOutput());
  EXPECT_EQ("", uart.TakeOutput());
}

TEST(UartTest, RxInterruptFires) {
  Cpu cpu;
  cpu.EnableInterrupts();
  Pic pic(&cpu);
  pic.Unmask(4);
  int irqs = 0;
  cpu.SetVector(kIrqBaseVector + 4, [&](TrapFrame&) {
    ++irqs;
    return true;
  });
  Uart uart(&pic, 4);
  uart.EnableRxInterrupt(true);
  uart.InjectRx("ab", 2);
  EXPECT_EQ(2, irqs);
}

class WireFixture : public ::testing::Test {
 protected:
  struct Sink : WireEndpoint {
    const SimClock* clock = nullptr;  // set to record arrival times
    std::vector<std::vector<uint8_t>> frames;
    std::vector<SimTime> times;
    void FrameArrived(const uint8_t* frame, size_t len) override {
      frames.emplace_back(frame, frame + len);
      if (clock != nullptr) {
        times.push_back(clock->Now());
      }
    }
  };

  // 1250 bytes take 100 us at 100 Mbps.
  static constexpr size_t kFrameBytes = 1250;
  static constexpr SimTime kSerializeNs = 100 * kNsPerUs;
  static constexpr SimTime kPropagationNs = 5 * kNsPerUs;

  // A broadcast frame from 02:00:00:00:00:<station> carrying `tag`.
  static std::vector<uint8_t> StationFrame(uint8_t station, uint8_t tag) {
    std::vector<uint8_t> frame(kFrameBytes, 0);
    memset(frame.data(), 0xff, 6);
    frame[6] = 2;
    frame[11] = station;
    frame[14] = tag;
    return frame;
  }
};

TEST_F(WireFixture, DeliversToAllOtherEndpoints) {
  trace::TraceEnv tenv;
  SimClock clock;
  VirtualSwitch hub(&clock, EthernetWire::Config{}, &tenv);
  Sink a;
  Sink b;
  Sink c;
  hub.Attach(&a);
  hub.Attach(&b);
  hub.Attach(&c);
  uint8_t frame[64] = {1, 2, 3};
  SendFrame(hub, &a, frame, sizeof(frame));
  while (clock.RunOne()) {
  }
  EXPECT_EQ(0u, a.frames.size());  // no self-delivery
  ASSERT_EQ(1u, b.frames.size());
  ASSERT_EQ(1u, c.frames.size());
  EXPECT_EQ(64u, b.frames[0].size());
}

TEST_F(WireFixture, BandwidthSerializesFrames) {
  trace::TraceEnv tenv;
  SimClock clock;
  EthernetWire::Config config;
  config.bits_per_second = 100 * 1000 * 1000;  // 100 Mbps
  VirtualSwitch hub(&clock, config, &tenv);
  Sink rx;
  Sink tx;
  hub.Attach(&tx);
  hub.Attach(&rx);
  uint8_t frame[1250];  // 10000 bits -> 100 us at 100 Mbps
  SendFrame(hub, &tx, frame, sizeof(frame));
  SendFrame(hub, &tx, frame, sizeof(frame));
  clock.RunUntil(150 * kNsPerUs);
  EXPECT_EQ(1u, rx.frames.size());  // second still serializing
  clock.RunUntil(250 * kNsPerUs);
  EXPECT_EQ(2u, rx.frames.size());
}

TEST_F(WireFixture, LossDropsDeterministically) {
  trace::TraceEnv tenv;
  SimClock clock;
  EthernetWire::Config config;
  config.loss_percent = 50;
  config.fault_seed = 99;
  VirtualSwitch hub(&clock, config, &tenv);
  Sink tx;
  Sink rx;
  hub.Attach(&tx);
  hub.Attach(&rx);
  uint8_t frame[64] = {};
  for (int i = 0; i < 100; ++i) {
    SendFrame(hub, &tx, frame, sizeof(frame));
  }
  while (clock.RunOne()) {
  }
  EXPECT_GT(rx.frames.size(), 25u);
  EXPECT_LT(rx.frames.size(), 75u);
  EXPECT_EQ(100u - rx.frames.size(), hub.frames_dropped());
}

// The shared segment is one collision domain: two stations that send at the
// same instant take turns on the medium, so the second frame lands one
// serialization time after the first.  A switch gives every port its own
// egress, and both frames land together.
TEST_F(WireFixture, SimultaneousSendersTakeTurnsOnTheHubOnly) {
  trace::TraceEnv tenv;
  EthernetWire::Config hub_config;
  hub_config.bits_per_second = 100 * 1000 * 1000;
  hub_config.propagation_ns = kPropagationNs;
  VirtualSwitch::Config switch_config;
  switch_config.port.bits_per_second = hub_config.bits_per_second;
  switch_config.port.propagation_ns = kPropagationNs;
  const std::vector<uint8_t> from_a = StationFrame(1, 0xa);
  const std::vector<uint8_t> from_b = StationFrame(2, 0xb);
  const SimTime first = kSerializeNs + kPropagationNs;

  for (bool hub : {true, false}) {
    SCOPED_TRACE(hub ? "hub" : "switch");
    SimClock clock;
    std::unique_ptr<VirtualSwitch> fabric =
        hub ? std::make_unique<VirtualSwitch>(&clock, hub_config, &tenv)
            : std::make_unique<VirtualSwitch>(&clock, switch_config, &tenv);
    Sink a;
    Sink b;
    a.clock = &clock;
    b.clock = &clock;
    fabric->Attach(&a);
    fabric->Attach(&b);
    SendFrame(*fabric, &a, from_a.data(), from_a.size());
    SendFrame(*fabric, &b, from_b.data(), from_b.size());
    while (clock.RunOne()) {
    }
    ASSERT_EQ(1u, b.frames.size());
    ASSERT_EQ(1u, a.frames.size());
    EXPECT_EQ(from_a, b.frames[0]);
    EXPECT_EQ(from_b, a.frames[0]);
    EXPECT_EQ(first, b.times[0]);
    EXPECT_EQ(hub ? first + kSerializeNs : first, a.times[0]);
  }
}

// A frame the fault model drops has still used the medium: frame i lands one
// serialization time after frame i - 1 left, whether or not that one arrived.
TEST_F(WireFixture, LostFrameStillHoldsTheMedium) {
  trace::TraceEnv tenv;
  EthernetWire::Config config;
  config.bits_per_second = 100 * 1000 * 1000;
  config.propagation_ns = kPropagationNs;
  config.loss_percent = 50;
  config.fault_seed = 99;
  SimClock clock;
  VirtualSwitch hub(&clock, config, &tenv);
  Sink tx;
  Sink rx;
  rx.clock = &clock;
  hub.Attach(&tx);
  hub.Attach(&rx);
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    const std::vector<uint8_t> frame = StationFrame(1, static_cast<uint8_t>(i));
    SendFrame(hub, &tx, frame.data(), frame.size());
  }
  while (clock.RunOne()) {
  }
  ASSERT_GT(rx.frames.size(), 0u);
  ASSERT_LT(rx.frames.size(), static_cast<size_t>(kFrames));
  bool delivered_after_a_loss = false;
  for (size_t k = 0; k < rx.frames.size(); ++k) {
    const uint8_t index = rx.frames[k][14];
    EXPECT_EQ((index + 1) * kSerializeNs + kPropagationNs, rx.times[k])
        << "frame " << +index;
    delivered_after_a_loss |= index != k;
  }
  EXPECT_TRUE(delivered_after_a_loss);
}

TEST(NicTest, FiltersByDestinationMac) {
  trace::TraceEnv tenv;
  SimClock clock;
  Simulation sim;
  VirtualSwitch hub(&sim.clock(), EthernetWire::Config{}, &tenv);
  Cpu cpu;
  Pic pic(&cpu);
  EtherAddr mac_a{{2, 0, 0, 0, 0, 1}};
  EtherAddr mac_b{{2, 0, 0, 0, 0, 2}};
  NicHw nic_a(&hub, &pic, &sim.clock(), mac_a);
  NicHw nic_b(&hub, &pic, &sim.clock(), mac_b);

  uint8_t frame[60] = {};
  memcpy(frame, mac_b.bytes, 6);  // dst = B
  SendFrame(nic_a, frame, sizeof(frame));
  while (sim.clock().RunOne()) {
  }
  EXPECT_TRUE(nic_b.RxPending());
  EXPECT_EQ(0u, nic_a.rx_frames());

  // Broadcast reaches B too.
  memset(frame, 0xff, 6);
  SendFrame(nic_a, frame, sizeof(frame));
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(2u, nic_b.rx_frames());

  // Frame for someone else is ignored.
  frame[5] = 0x77;
  frame[0] = 2;
  SendFrame(nic_a, frame, sizeof(frame));
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(2u, nic_b.rx_frames());
}

TEST(NicTest, RxMitigationThresholdHoldoffAndRingFallback) {
  trace::TraceEnv tenv;
  Simulation sim;
  VirtualSwitch hub(&sim.clock(), EthernetWire::Config{}, &tenv);
  Cpu cpu;
  Pic pic(&cpu);
  EtherAddr mac_a{{2, 0, 0, 0, 0, 1}};
  EtherAddr mac_b{{2, 0, 0, 0, 0, 2}};
  NicHw tx(&hub, &pic, &sim.clock(), mac_a);
  NicHw rx(&hub, &pic, &sim.clock(), mac_b);
  rx.EnableRxInterrupt(true);

  uint8_t frame[60] = {};
  memcpy(frame, mac_b.bytes, 6);
  memcpy(frame + 6, mac_a.bytes, 6);
  auto send = [&](int n) {
    for (int i = 0; i < n; ++i) {
      SendFrame(tx, frame, sizeof(frame));
    }
  };
  auto drain = [&] {
    uint8_t buf[kEtherMaxFrame];
    while (rx.RxPending()) {
      rx.RxDequeue(buf);
    }
  };
  auto irqs = [&] { return static_cast<uint64_t>(rx.rx_coalesce_irqs_counter()); };

  // Threshold: the IRQ fires on the Nth unannounced frame, not before.
  NicHw::RxMitigation mit;
  mit.frame_threshold = 3;
  rx.SetRxMitigation(mit);
  send(2);
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(0u, irqs());
  EXPECT_TRUE(rx.RxPending());
  send(1);
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(1u, irqs());
  EXPECT_EQ(1u, static_cast<uint64_t>(rx.rx_coalesce_threshold_counter()));
  drain();

  // Holdoff: below-threshold frames are announced when the timer armed by
  // the first of them expires.
  mit.frame_threshold = 100;
  mit.holdoff_ns = 1 * kNsPerMs;
  rx.SetRxMitigation(mit);
  send(2);
  sim.clock().RunUntil(sim.clock().Now() + 100 * kNsPerUs);
  EXPECT_EQ(1u, irqs()) << "no IRQ before the holdoff expires";
  sim.clock().RunUntil(sim.clock().Now() + 2 * kNsPerMs);
  EXPECT_EQ(2u, irqs());
  EXPECT_EQ(1u, static_cast<uint64_t>(rx.rx_coalesce_holdoff_counter()));
  drain();

  // Ring-occupancy fallback: with a huge threshold and no holdoff, the
  // safety net announces when the ring fills to kRxRingFallback frames.
  mit.frame_threshold = 1000;
  mit.holdoff_ns = 0;
  rx.SetRxMitigation(mit);
  send(NicHw::kRxRingFallback - 1);
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(2u, irqs());
  send(1);
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(3u, irqs());
  EXPECT_EQ(1u, static_cast<uint64_t>(rx.rx_coalesce_ring_counter()));
  drain();

  // Masked RX: frames land silently, and re-enabling does NOT retroactively
  // announce them — the classic race a polled driver must re-check for.
  rx.EnableRxInterrupt(false);
  send(3);
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(3u, irqs());
  EXPECT_TRUE(rx.RxPending());
  rx.EnableRxInterrupt(true);
  EXPECT_EQ(3u, irqs()) << "re-enable must not replay the pending frames";
  mit = NicHw::RxMitigation{};  // back to per-frame power-on defaults
  rx.SetRxMitigation(mit);
  send(1);
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(4u, irqs());
  // Every accepted frame was counted even while masked/coalescing.
  EXPECT_EQ(static_cast<uint64_t>(rx.rx_coalesce_frames_counter()),
            rx.rx_frames());
}

TEST(NicTest, GatherTransmitMatchesFlat) {
  trace::TraceEnv tenv;
  SimClock clock;
  Simulation sim;
  VirtualSwitch hub(&sim.clock(), EthernetWire::Config{}, &tenv);
  Cpu cpu;
  Pic pic(&cpu);
  NicHw tx(&hub, &pic, &sim.clock(), EtherAddr{{2, 0, 0, 0, 0, 1}});
  NicHw rx(&hub, &pic, &sim.clock(), EtherAddr{{2, 0, 0, 0, 0, 2}});

  uint8_t part1[14] = {2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x08, 0x00};
  uint8_t part2[46];
  for (size_t i = 0; i < sizeof(part2); ++i) {
    part2[i] = static_cast<uint8_t>(i);
  }
  const uint8_t* chunks[] = {part1, part2};
  size_t lens[] = {sizeof(part1), sizeof(part2)};
  tx.TxStart(chunks, lens, 2);
  while (sim.clock().RunOne()) {
  }
  ASSERT_TRUE(rx.RxPending());
  uint8_t buf[kEtherMaxFrame];
  size_t n = rx.RxDequeue(buf);
  ASSERT_EQ(60u, n);
  EXPECT_EQ(0, memcmp(buf, part1, sizeof(part1)));
  EXPECT_EQ(0, memcmp(buf + 14, part2, sizeof(part2)));
}

// ---------------------------------------------------------------------------
// VirtualSwitch frame pool: one buffer per transmitted frame, shared by
// every egress port and duplicate.
// ---------------------------------------------------------------------------

// A broadcast frame from 02:00:00:00:00:01 with a patterned payload.
std::vector<uint8_t> BroadcastFrame(size_t len) {
  std::vector<uint8_t> frame(len);
  for (size_t i = 0; i < len; ++i) {
    frame[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint8_t header[12] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 1};
  memcpy(frame.data(), header, sizeof(header));
  return frame;
}

TEST_F(WireFixture, SwitchFrameSharedWithACorruptingNicArrivesIntactElsewhere) {
  trace::TraceEnv tenv;
  fault::FaultEnv fenv(7);
  fault::FaultSpec always;
  always.probability_percent = 100;
  fenv.Arm("nic.rx.corrupt", always);
  Simulation sim;
  VirtualSwitch::Config config;
  config.port.duplicate_percent = 100;
  VirtualSwitch sw(&sim.clock(), config, &tenv);
  Cpu cpu;
  Pic pic(&cpu);
  Sink sender;
  Sink before;
  Sink after;
  sw.Attach(&sender);
  sw.Attach(&before);
  NicHw nic(&sw, &pic, &sim.clock(), EtherAddr{{2, 0, 0, 0, 0, 3}});
  nic.SetFaultEnv(&fenv);
  sw.Attach(&after);  // its copies are delivered after the NIC's

  const std::vector<uint8_t> frame = BroadcastFrame(300);
  SendFrame(sw, &sender, frame.data(), frame.size());
  // Six deliveries (three ports, each duplicated) hold one pooled buffer.
  EXPECT_EQ(1u, sw.frames_outstanding());
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(3u, sw.frames_duplicated());
  EXPECT_EQ(0u, sw.frames_outstanding());
  EXPECT_TRUE(sender.frames.empty());
  ASSERT_EQ(2u, before.frames.size());
  ASSERT_EQ(2u, after.frames.size());
  for (const Sink* sink : {&before, &after}) {
    for (const std::vector<uint8_t>& got : sink->frames) {
      EXPECT_EQ(frame, got);
    }
  }
  // The NIC flipped one byte in each of its own ring copies, and only there.
  EXPECT_EQ(2u, nic.rx_corrupted());
  for (int copy = 0; copy < 2; ++copy) {
    ASSERT_TRUE(nic.RxPending());
    std::vector<uint8_t> got(nic.RxFrameSize());
    ASSERT_EQ(frame.size(), nic.RxDequeue(got.data()));
    size_t flipped = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      flipped += got[i] != frame[i] ? 1 : 0;
    }
    EXPECT_EQ(1u, flipped);
  }
}

TEST_F(WireFixture, SwitchDestroyedWithDeliveriesPendingFreesEachFrameOnce) {
  // Under ASan this is the check: no leak and no double free, whether the
  // switch or the clock holding its deliveries goes first.
  trace::TraceEnv tenv;
  for (bool switch_first : {true, false}) {
    auto clock = std::make_unique<SimClock>();
    VirtualSwitch::Config config;
    config.port.duplicate_percent = 50;
    config.port.propagation_ns = 10 * kNsPerUs;
    auto sw = std::make_unique<VirtualSwitch>(clock.get(), config, &tenv);
    Sink a;
    Sink b;
    Sink c;
    sw->Attach(&a);
    sw->Attach(&b);
    sw->Attach(&c);
    const std::vector<uint8_t> frame = BroadcastFrame(1500);
    for (int i = 0; i < 5; ++i) {
      SendFrame(*sw, &a, frame.data(), frame.size());
    }
    EXPECT_EQ(5u, sw->frames_outstanding());
    if (switch_first) {
      sw.reset();
    }
    clock.reset();
    sw.reset();
    EXPECT_TRUE(b.frames.empty());
  }
}

TEST_F(WireFixture, SwitchForwardsWithoutAllocatingOnceWarm) {
  trace::TraceEnv tenv;
  struct Counter : WireEndpoint {
    size_t bytes = 0;
    void FrameArrived(const uint8_t* /*frame*/, size_t len) override { bytes += len; }
  };
  Simulation sim;
  VirtualSwitch::Config config;
  config.port.duplicate_percent = 100;  // every round schedules alike
  VirtualSwitch sw(&sim.clock(), config, &tenv);
  Counter a;
  Counter b;
  Counter c;
  sw.Attach(&a);
  sw.Attach(&b);
  sw.Attach(&c);
  const std::vector<uint8_t> frame = BroadcastFrame(1514);
  const uint8_t* chunks[] = {frame.data(), frame.data() + 14};
  const size_t lens[] = {14, frame.size() - 14};
  auto burst = [&] {
    for (int i = 0; i < 100; ++i) {
      if (i % 2 == 0) {
        SendFrame(sw, &a, frame.data(), frame.size());
      } else {
        sw.Transmit(&a, chunks, lens, 2);
      }
    }
    while (sim.clock().RunOne()) {
    }
  };
  burst();  // grows the frame pool, the MAC table and the clock's tables
  size_t before = GlobalNewCalls();
  for (int round = 0; round < 20; ++round) {
    burst();
  }
  EXPECT_EQ(before, GlobalNewCalls());
  EXPECT_EQ(0u, sw.frames_outstanding());
  EXPECT_EQ(21u * 100u * 2u * frame.size(), b.bytes);
  EXPECT_EQ(b.bytes, c.bytes);
}

TEST_F(WireFixture, SwitchFloodsForAStationItsFullTableCannotLearn) {
  trace::TraceEnv tenv;
  SimClock clock;
  VirtualSwitch sw(&clock, VirtualSwitch::Config{}, &tenv);
  Sink stations;  // one port, every source MAC behind it
  Sink probe;
  Sink bystander;
  sw.Attach(&stations);
  sw.Attach(&probe);
  sw.Attach(&bystander);
  // 02:00:00:00:hi:lo, a unicast station address.
  auto station_mac = [](size_t i, uint8_t* out) {
    const uint8_t mac[6] = {2, 0, 0, 0, static_cast<uint8_t>(i >> 8),
                            static_cast<uint8_t>(i)};
    memcpy(out, mac, sizeof(mac));
  };
  uint8_t frame[60] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  for (size_t i = 0; i <= VirtualSwitch::kMaxMacs; ++i) {
    station_mac(i, frame + 6);
    SendFrame(sw, &stations, frame, sizeof(frame));
  }
  while (clock.RunOne()) {
  }
  EXPECT_EQ(1u, sw.mac_table_full());
  EXPECT_EQ(VirtualSwitch::kMaxMacs, sw.macs_learned());

  // A learned station gets its frames unicast; the one the table had no
  // room for keeps getting them flooded.
  const size_t flooded = sw.frames_flooded();
  bystander.frames.clear();
  uint8_t reply[60] = {};
  station_mac(0, reply);
  SendFrame(sw, &probe, reply, sizeof(reply));
  station_mac(VirtualSwitch::kMaxMacs, reply);
  SendFrame(sw, &probe, reply, sizeof(reply));
  while (clock.RunOne()) {
  }
  EXPECT_EQ(flooded + 1, sw.frames_flooded());
  ASSERT_EQ(1u, bystander.frames.size());
  EXPECT_EQ(0, memcmp(bystander.frames[0].data(), reply, sizeof(reply)));
  EXPECT_EQ(2u, stations.frames.size());  // one unicast, one flooded
}

// A unicast frame for 02:00:00:00:00:<station> from station 9.
std::vector<uint8_t> UnicastTo(uint8_t station) {
  std::vector<uint8_t> frame(60, 0);
  frame[0] = 2;
  frame[5] = station;
  frame[6] = 2;
  frame[11] = 9;
  return frame;
}

TEST_F(WireFixture, SwitchMovesAStationThatAppearsOnAnotherPort) {
  trace::TraceEnv tenv;
  SimClock clock;
  VirtualSwitch sw(&clock, VirtualSwitch::Config{}, &tenv);
  Sink old_port;
  Sink new_port;
  Sink peer;
  sw.Attach(&old_port);
  sw.Attach(&new_port);
  sw.Attach(&peer);
  const std::vector<uint8_t> hello = StationFrame(1, 0);
  SendFrame(sw, &old_port, hello.data(), hello.size());
  SendFrame(sw, &new_port, hello.data(), hello.size());
  while (clock.RunOne()) {
  }
  EXPECT_EQ(1u, sw.macs_learned());
  EXPECT_EQ(1u, sw.mac_moves());

  // Frames for the station now leave by its new port alone.
  old_port.frames.clear();
  new_port.frames.clear();
  const std::vector<uint8_t> reply = UnicastTo(1);
  SendFrame(sw, &peer, reply.data(), reply.size());
  while (clock.RunOne()) {
  }
  EXPECT_EQ(1u, sw.frames_unicast());
  EXPECT_TRUE(old_port.frames.empty());
  ASSERT_EQ(1u, new_port.frames.size());
  EXPECT_EQ(reply, new_port.frames[0]);
}

TEST_F(WireFixture, SwitchFiltersAFrameForItsOwnIngressSegment) {
  trace::TraceEnv tenv;
  SimClock clock;
  VirtualSwitch sw(&clock, VirtualSwitch::Config{}, &tenv);
  Sink segment;  // stations 1 and 9 both sit behind this port
  Sink b;
  Sink c;
  sw.Attach(&segment);
  sw.Attach(&b);
  sw.Attach(&c);
  const std::vector<uint8_t> hello = StationFrame(1, 0);
  SendFrame(sw, &segment, hello.data(), hello.size());
  while (clock.RunOne()) {
  }
  b.frames.clear();
  c.frames.clear();

  // Station 9 writes to station 1 on the same segment: the switch drops the
  // frame instead of echoing it back or flooding it.
  const std::vector<uint8_t> local = UnicastTo(1);
  SendFrame(sw, &segment, local.data(), local.size());
  while (clock.RunOne()) {
  }
  EXPECT_EQ(1u, sw.frames_filtered());
  EXPECT_EQ(0u, sw.frames_unicast());
  EXPECT_EQ(1u, sw.frames_flooded());  // the hello only
  EXPECT_TRUE(segment.frames.empty());
  EXPECT_TRUE(b.frames.empty());
  EXPECT_TRUE(c.frames.empty());
}

TEST(DiskTest, ReadWriteWithCompletionIrq) {
  Simulation sim;
  Machine::Config config;
  Machine machine(&sim, config);
  machine.cpu().EnableInterrupts();
  DiskHw* disk = machine.AddDisk(128);
  int completions = 0;
  machine.cpu().SetVector(kIrqBaseVector + disk->irq(), [&](TrapFrame&) {
    ++completions;
    return true;
  });
  machine.pic().Unmask(disk->irq());

  uint8_t write_buf[512];
  for (size_t i = 0; i < sizeof(write_buf); ++i) {
    write_buf[i] = static_cast<uint8_t>(i * 7);
  }
  disk->SubmitWrite(5, 1, write_buf);
  EXPECT_TRUE(disk->Busy());
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(1, completions);
  EXPECT_TRUE(disk->RequestDone());
  EXPECT_EQ(Error::kOk, disk->RequestStatus());
  disk->AckCompletion();

  uint8_t read_buf[512] = {};
  disk->SubmitRead(5, 1, read_buf);
  while (sim.clock().RunOne()) {
  }
  EXPECT_EQ(0, memcmp(write_buf, read_buf, 512));
  EXPECT_EQ(2, completions);
}

TEST(DiskTest, OutOfRangeRequestFails) {
  Simulation sim;
  Machine machine(&sim, {});
  machine.cpu().EnableInterrupts();
  DiskHw* disk = machine.AddDisk(16);
  machine.cpu().SetVector(kIrqBaseVector + disk->irq(),
                          [](TrapFrame&) { return true; });
  machine.pic().Unmask(disk->irq());
  uint8_t buf[512];
  disk->SubmitRead(100, 1, buf);
  while (sim.clock().RunOne()) {
  }
  EXPECT_TRUE(disk->RequestDone());
  EXPECT_EQ(Error::kOutOfRange, disk->RequestStatus());
}

// Shared setup for the disk durability tests: machine, one disk, IRQ wired.
struct DiskRig {
  Simulation sim;
  Machine machine{&sim, {}};
  DiskHw* disk = nullptr;

  explicit DiskRig(uint64_t sectors) {
    machine.cpu().EnableInterrupts();
    disk = machine.AddDisk(sectors);
    machine.cpu().SetVector(kIrqBaseVector + disk->irq(),
                            [](TrapFrame&) { return true; });
    machine.pic().Unmask(disk->irq());
  }

  // Runs the simulation until the outstanding request completes and returns
  // its status.
  Error Run() {
    while (sim.clock().RunOne()) {
    }
    EXPECT_TRUE(disk->RequestDone());
    Error status = disk->RequestStatus();
    disk->AckCompletion();
    return status;
  }

  Error Write(uint64_t lba, uint32_t sectors, const uint8_t* buf) {
    disk->SubmitWrite(lba, sectors, buf);
    return Run();
  }

  Error Flush() {
    disk->SubmitFlush();
    return Run();
  }
};

void FillSector(uint8_t* buf, uint8_t tag) {
  for (size_t i = 0; i < DiskHw::kSectorSize; ++i) {
    buf[i] = static_cast<uint8_t>(tag + i);
  }
}

TEST(DiskTest, WriteCacheVolatileUntilFlush) {
  uint8_t sector[DiskHw::kSectorSize];
  FillSector(sector, 3);

  // Unflushed write: visible immediately, gone after the cut.
  {
    DiskRig rig(64);
    rig.disk->EnableWriteCache(true);
    EXPECT_EQ(Error::kOk, rig.Write(7, 1, sector));
    EXPECT_EQ(0, memcmp(rig.disk->raw() + 7 * DiskHw::kSectorSize, sector,
                        sizeof(sector)));
    EXPECT_EQ(1u, rig.disk->cached_writes());
    rig.disk->PowerCut(DiskHw::CutPolicy::kDropAll, 1);
    EXPECT_TRUE(rig.disk->powered_off());
    uint8_t zero[DiskHw::kSectorSize] = {};
    EXPECT_EQ(0, memcmp(rig.disk->raw() + 7 * DiskHw::kSectorSize, zero,
                        sizeof(zero)));
    EXPECT_EQ(1u, rig.disk->wcache_dropped_counter().value());
    // A dead controller fails every request.
    rig.disk->SubmitWrite(7, 1, sector);
    EXPECT_EQ(Error::kIo, rig.Run());
  }

  // Flushed write: survives the same cut.
  {
    DiskRig rig(64);
    rig.disk->EnableWriteCache(true);
    EXPECT_EQ(Error::kOk, rig.Write(7, 1, sector));
    EXPECT_EQ(Error::kOk, rig.Flush());
    EXPECT_EQ(0u, rig.disk->cached_writes());
    EXPECT_EQ(1u, rig.disk->flushes_completed());
    rig.disk->PowerCut(DiskHw::CutPolicy::kDropAll, 1);
    EXPECT_EQ(0, memcmp(rig.disk->raw() + 7 * DiskHw::kSectorSize, sector,
                        sizeof(sector)));
    EXPECT_EQ(0u, rig.disk->wcache_dropped_counter().value());
  }
}

TEST(DiskTest, WriteLogRecordsCompletionOrder) {
  DiskRig rig(64);
  uint8_t sector[DiskHw::kSectorSize];
  FillSector(sector, 9);
  EXPECT_EQ(Error::kOk, rig.Write(11, 1, sector));
  EXPECT_EQ(Error::kOk, rig.Write(3, 1, sector));
  ASSERT_EQ(2u, rig.disk->write_log().size());
  EXPECT_EQ(11u, rig.disk->write_log()[0].lba);
  EXPECT_EQ(3u, rig.disk->write_log()[1].lba);
  rig.disk->ClearWriteLog();
  EXPECT_TRUE(rig.disk->write_log().empty());
}

TEST(DiskTest, PowerCutPoliciesDeterministicPerSeed) {
  // For each lossy policy: the same seed must yield the same post-crash
  // image (the crash campaign replays runs by seed), and a different seed a
  // generally different one.
  for (DiskHw::CutPolicy policy :
       {DiskHw::CutPolicy::kDropSubset, DiskHw::CutPolicy::kReorder,
        DiskHw::CutPolicy::kTear}) {
    auto run = [&](uint64_t seed) {
      DiskRig rig(64);
      rig.disk->EnableWriteCache(true);
      uint8_t sector[4 * DiskHw::kSectorSize];
      for (uint8_t tag = 0; tag < 8; ++tag) {
        FillSector(sector, tag);
        FillSector(sector + DiskHw::kSectorSize, tag + 100);
        FillSector(sector + 2 * DiskHw::kSectorSize, tag + 200);
        FillSector(sector + 3 * DiskHw::kSectorSize, tag + 23);
        // Overlapping runs so reordering is observable.
        EXPECT_EQ(Error::kOk, rig.Write(tag * 2, 4, sector));
      }
      rig.disk->PowerCut(policy, seed);
      return std::vector<uint8_t>(rig.disk->raw().data(),
                                  rig.disk->raw().data() + rig.disk->raw_size());
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
  }
}

TEST(DiskTest, TearPolicyKeepsSectorPrefixOfLastWrite) {
  DiskRig rig(64);
  rig.disk->EnableWriteCache(true);
  uint8_t a[DiskHw::kSectorSize];
  uint8_t b[4 * DiskHw::kSectorSize];
  FillSector(a, 1);
  for (int s = 0; s < 4; ++s) {
    FillSector(b + s * DiskHw::kSectorSize, static_cast<uint8_t>(50 + s));
  }
  EXPECT_EQ(Error::kOk, rig.Write(2, 1, a));
  EXPECT_EQ(Error::kOk, rig.Write(10, 4, b));
  rig.disk->PowerCut(DiskHw::CutPolicy::kTear, 7);
  // The earlier write always survives a tear of the last one.
  EXPECT_EQ(0, memcmp(rig.disk->raw() + 2 * DiskHw::kSectorSize, a, sizeof(a)));
  EXPECT_EQ(1u, rig.disk->wcache_torn_counter().value());
  // The torn write landed some whole-sector prefix: each of its sectors is
  // entirely old (zero) or entirely new, and never new-after-old.
  bool seen_old = false;
  for (int s = 0; s < 4; ++s) {
    const uint8_t* sec = rig.disk->raw() + (10 + s) * DiskHw::kSectorSize;
    uint8_t zero[DiskHw::kSectorSize] = {};
    bool is_new = memcmp(sec, b + s * DiskHw::kSectorSize,
                         DiskHw::kSectorSize) == 0;
    bool is_old = memcmp(sec, zero, DiskHw::kSectorSize) == 0;
    EXPECT_TRUE(is_new || is_old) << "sector " << s << " is torn mid-sector";
    if (is_old) {
      seen_old = true;
    }
    if (seen_old) {
      EXPECT_TRUE(is_old) << "sector " << s << " written after a gap";
    }
  }
}

TEST(DiskTest, ArmedPowerCutFailsAtRiskWrite) {
  DiskRig rig(64);
  rig.disk->EnableWriteCache(true);
  uint8_t sector[DiskHw::kSectorSize];
  FillSector(sector, 5);
  rig.disk->ArmPowerCut(2, DiskHw::CutPolicy::kDropAll, 99);
  EXPECT_EQ(Error::kOk, rig.Write(1, 1, sector));
  // The second write is the dying gasp: power fails as it completes.
  EXPECT_EQ(Error::kIo, rig.Write(2, 1, sector));
  EXPECT_TRUE(rig.disk->powered_off());
  uint8_t zero[DiskHw::kSectorSize] = {};
  EXPECT_EQ(0, memcmp(rig.disk->raw() + 1 * DiskHw::kSectorSize, zero,
                      sizeof(zero)));
  EXPECT_EQ(0, memcmp(rig.disk->raw() + 2 * DiskHw::kSectorSize, zero,
                      sizeof(zero)));
}

TEST(DiskTest, ResetDuringInFlightWriteLeavesDurableStorageUntouched) {
  DiskRig rig(64);
  rig.disk->EnableWriteCache(true);
  uint8_t a[DiskHw::kSectorSize];
  uint8_t b[DiskHw::kSectorSize];
  FillSector(a, 1);
  FillSector(b, 2);
  EXPECT_EQ(Error::kOk, rig.Write(4, 1, a));
  EXPECT_EQ(Error::kOk, rig.Flush());

  // Reset the controller while the next write is still in flight: its
  // completion must never arrive and no partial transfer may reach the
  // cache or the store.
  rig.disk->SubmitWrite(5, 1, b);
  EXPECT_TRUE(rig.disk->Busy());
  rig.disk->Reset();
  while (rig.sim.clock().RunOne()) {
  }
  EXPECT_FALSE(rig.disk->RequestDone());
  EXPECT_EQ(1u, rig.disk->resets());
  EXPECT_EQ(1u, rig.disk->writes_completed());
  EXPECT_EQ(0u, rig.disk->cached_writes());
  uint8_t zero[DiskHw::kSectorSize] = {};
  EXPECT_EQ(0, memcmp(rig.disk->raw() + 5 * DiskHw::kSectorSize, zero,
                      sizeof(zero)));
  // The flushed write is still durable across a subsequent power cut.
  rig.disk->PowerCut(DiskHw::CutPolicy::kDropAll, 3);
  EXPECT_EQ(0, memcmp(rig.disk->raw() + 4 * DiskHw::kSectorSize, a, sizeof(a)));

  // And the controller works again after the reset (before the cut this
  // retry would have succeeded — verify via a second rig).
  DiskRig retry(64);
  retry.disk->SubmitWrite(5, 1, b);
  retry.disk->Reset();
  while (retry.sim.clock().RunOne()) {
  }
  EXPECT_EQ(Error::kOk, retry.Write(5, 1, b));
  EXPECT_EQ(0, memcmp(retry.disk->raw() + 5 * DiskHw::kSectorSize, b,
                      sizeof(b)));
}

TEST(DiskTest, FlushErrorFaultLeavesCacheVolatile) {
  DiskRig rig(64);
  fault::FaultEnv faults(1);
  fault::FaultSpec spec;
  spec.probability_percent = 100;
  spec.max_fires = 1;
  faults.Arm("disk.flush.error", spec);
  rig.disk->SetFaultEnv(&faults);
  rig.disk->EnableWriteCache(true);
  uint8_t sector[DiskHw::kSectorSize];
  FillSector(sector, 8);
  EXPECT_EQ(Error::kOk, rig.Write(6, 1, sector));
  // First flush fails; the cache must stay volatile.
  EXPECT_EQ(Error::kIo, rig.Flush());
  EXPECT_EQ(1u, rig.disk->cached_writes());
  EXPECT_EQ(0u, rig.disk->flushes_completed());
  // The retry drains it.
  EXPECT_EQ(Error::kOk, rig.Flush());
  EXPECT_EQ(0u, rig.disk->cached_writes());
  rig.disk->PowerCut(DiskHw::CutPolicy::kDropAll, 4);
  EXPECT_EQ(0, memcmp(rig.disk->raw() + 6 * DiskHw::kSectorSize, sector,
                      sizeof(sector)));
}

// Reference model of the write cache as a full durable-image copy: a
// flush applies every cached write to the copy, and a power cut applies the
// survivors to it with the same RNG draws as the disk.  The disk keeps only
// an undo log, so the two must agree byte for byte after every cut.
class SnapshotModel {
 public:
  explicit SnapshotModel(const DiskHw& disk)
      : durable_(disk.raw().data(), disk.raw().data() + disk.raw_size()) {}

  void Write(uint64_t lba, uint32_t sectors, const uint8_t* buf) {
    cached_.push_back(
        {lba, sectors,
         std::vector<uint8_t>(buf, buf + sectors * DiskHw::kSectorSize)});
  }

  void Flush() {
    for (const Cached& w : cached_) {
      Apply(w, w.sectors);
    }
    cached_.clear();
  }

  size_t cached_writes() const { return cached_.size(); }

  const std::vector<uint8_t>& Cut(DiskHw::CutPolicy policy, uint64_t seed) {
    Rng rng(seed);
    switch (policy) {
      case DiskHw::CutPolicy::kDropAll:
        break;
      case DiskHw::CutPolicy::kDropSubset:
        for (const Cached& w : cached_) {
          if (rng.Percent(50)) {
            Apply(w, w.sectors);
          }
        }
        break;
      case DiskHw::CutPolicy::kReorder: {
        std::vector<size_t> order(cached_.size());
        for (size_t i = 0; i < order.size(); ++i) {
          order[i] = i;
        }
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.Below(i)]);
        }
        for (size_t idx : order) {
          if (rng.Percent(75)) {
            Apply(cached_[idx], cached_[idx].sectors);
          }
        }
        break;
      }
      case DiskHw::CutPolicy::kTear:
        for (size_t i = 0; i + 1 < cached_.size(); ++i) {
          Apply(cached_[i], cached_[i].sectors);
        }
        if (!cached_.empty()) {
          const Cached& last = cached_.back();
          Apply(last, static_cast<uint32_t>(rng.Below(last.sectors)));
        }
        break;
    }
    cached_.clear();
    return durable_;
  }

 private:
  struct Cached {
    uint64_t lba;
    uint32_t sectors;
    std::vector<uint8_t> data;
  };

  void Apply(const Cached& w, uint32_t sectors) {
    std::memcpy(durable_.data() + w.lba * DiskHw::kSectorSize, w.data.data(),
                sectors * DiskHw::kSectorSize);
  }

  std::vector<uint8_t> durable_;
  std::vector<Cached> cached_;
};

TEST(DiskTest, UndoLogMatchesSnapshotModelUnderEveryCutPolicy) {
  constexpr uint64_t kSectors = 64;
  constexpr uint32_t kMaxRun = 8;
  for (DiskHw::CutPolicy policy :
       {DiskHw::CutPolicy::kDropAll, DiskHw::CutPolicy::kDropSubset,
        DiskHw::CutPolicy::kReorder, DiskHw::CutPolicy::kTear}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy)
                                      << " seed " << seed);
      DiskRig rig(kSectors);
      Rng ops(seed);
      std::vector<uint8_t> buf(kMaxRun * DiskHw::kSectorSize);
      auto random_write = [&] {
        uint64_t lba = ops.Below(kSectors - 1);
        auto sectors = static_cast<uint32_t>(
            ops.Range(1, std::min<uint64_t>(kMaxRun, kSectors - lba)));
        for (size_t i = 0; i < sectors * DiskHw::kSectorSize; ++i) {
          buf[i] = static_cast<uint8_t>(ops.Next());
        }
        EXPECT_EQ(Error::kOk, rig.Write(lba, sectors, buf.data()));
        return std::pair<uint64_t, uint32_t>(lba, sectors);
      };
      // Writes before the cache is on are durable at once.
      for (int i = 0; i < 4; ++i) {
        random_write();
      }
      rig.disk->EnableWriteCache(true);
      SnapshotModel model(*rig.disk);
      // Overlapping multi-sector writes with interleaved flushes; the last
      // operation is always a write, so every policy has an at-risk set.
      for (int i = 0; i < 48; ++i) {
        if (i + 1 < 48 && ops.Percent(15)) {
          EXPECT_EQ(Error::kOk, rig.Flush());
          model.Flush();
        } else {
          auto [lba, sectors] = random_write();
          model.Write(lba, sectors, buf.data());
        }
        ASSERT_EQ(model.cached_writes(), rig.disk->cached_writes());
      }
      uint64_t cut_seed = seed * 0x9e3779b97f4a7c15ull;
      rig.disk->PowerCut(policy, cut_seed);
      const std::vector<uint8_t>& want = model.Cut(policy, cut_seed);
      ASSERT_EQ(want.size(), rig.disk->raw_size());
      EXPECT_EQ(0, std::memcmp(want.data(), rig.disk->raw(), want.size()));
    }
  }
}

// The sparse copy of raw() must equal a dense copy of its bytes, byte for
// byte, whatever sequence of writes, flushes, resets and cuts built it.
void ExpectSparseCopyMatchesDense(const DiskHw& disk) {
  auto sparse = MemBlkIo::CreateFrom(disk.raw(), disk.raw_size(), 512);
  ASSERT_EQ(disk.raw_size(), sparse->size());
  EXPECT_EQ(0, std::memcmp(sparse->data(), disk.raw().data(), disk.raw_size()));
}

TEST(DiskTest, WrittenPagesAreExactlyThePagesWritten) {
  DiskRig rig(256);  // 32 pages of 4 KB
  std::vector<std::pair<size_t, size_t>> runs;
  auto collect = [&] {
    runs.clear();
    rig.disk->raw().written().ForEachRun(
        rig.disk->raw_size(), [&](size_t at, size_t len) { runs.emplace_back(at, len); });
  };
  collect();
  EXPECT_TRUE(runs.empty());
  // Sectors 7..9 straddle pages 0 and 1; sector 40 is page 5; an all-zero
  // payload still counts as written.
  uint8_t buf[3 * DiskHw::kSectorSize] = {};
  ASSERT_EQ(Error::kOk, rig.Write(7, 3, buf));
  ASSERT_EQ(Error::kOk, rig.Write(40, 1, buf));
  collect();
  EXPECT_EQ((std::vector<std::pair<size_t, size_t>>{{0, 8192}, {20480, 4096}}), runs);
  // A write aborted by Reset never lands, so it marks nothing.
  rig.disk->SubmitWrite(100, 1, buf);
  rig.disk->Reset();
  collect();
  EXPECT_EQ(2u, runs.size());
}

// A destroyed disk parks its platter: the next disk of its size takes the
// same mapping back, reading zero, whatever its last power cut left there.
TEST(DiskTest, ReleasedPlatterIsRetakenZeroed) {
  constexpr uint64_t kSectors = 232;  // 29 pages of 4 KB
  std::vector<uint8_t> buf(4 * DiskHw::kSectorSize);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i | 1);
  }
  for (DiskHw::CutPolicy policy :
       {DiskHw::CutPolicy::kDropAll, DiskHw::CutPolicy::kDropSubset,
        DiskHw::CutPolicy::kReorder, DiskHw::CutPolicy::kTear}) {
    SCOPED_TRACE(static_cast<int>(policy));
    const uint8_t* first = nullptr;
    {
      DiskRig rig(kSectors);
      ASSERT_EQ(Error::kOk, rig.Write(3, 4, buf.data()));  // durable
      rig.disk->EnableWriteCache(true);
      ASSERT_EQ(Error::kOk, rig.Write(40, 4, buf.data()));
      ASSERT_EQ(Error::kOk, rig.Write(kSectors - 4, 4, buf.data()));
      ASSERT_EQ(Error::kOk, rig.Write(3, 2, buf.data() + 7));
      rig.disk->PowerCut(policy, 7);
      first = rig.disk->raw().data();
    }
    DiskRig again(kSectors);
    SparseImage raw = again.disk->raw();
    EXPECT_EQ(first, raw.data());
    EXPECT_TRUE(std::all_of(raw.data(), raw.data() + raw.size(),
                            [](uint8_t b) { return b == 0; }));
    size_t runs = 0;
    raw.written().ForEachRun(raw.size(), [&](size_t, size_t) { ++runs; });
    EXPECT_EQ(0u, runs);
  }
}

TEST(DiskTest, SparseImageCopyMatchesDenseCopy) {
  constexpr uint64_t kSectors = 192;  // 24 pages of 4 KB
  constexpr uint32_t kMaxRun = 20;    // runs up to 2.5 pages straddle pages
  for (bool cache : {false, true}) {
    for (DiskHw::CutPolicy policy :
         {DiskHw::CutPolicy::kDropAll, DiskHw::CutPolicy::kDropSubset,
          DiskHw::CutPolicy::kReorder, DiskHw::CutPolicy::kTear}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "cache " << cache << " policy "
                                        << static_cast<int>(policy) << " seed " << seed);
        DiskRig rig(kSectors);
        rig.disk->EnableWriteCache(cache);
        Rng ops(seed);
        std::vector<uint8_t> buf(kMaxRun * DiskHw::kSectorSize);
        for (int i = 0; i < 40; ++i) {
          uint64_t lba = ops.Below(kSectors);
          auto sectors = static_cast<uint32_t>(
              ops.Range(1, std::min<uint64_t>(kMaxRun, kSectors - lba)));
          bool zeros = ops.Percent(20);
          for (size_t b = 0; b < sectors * DiskHw::kSectorSize; ++b) {
            buf[b] = zeros ? 0 : static_cast<uint8_t>(ops.Next() | 1);
          }
          if (ops.Percent(10)) {
            // A request the controller reset aborts: none of it may land.
            rig.disk->SubmitWrite(lba, sectors, buf.data());
            rig.disk->Reset();
          } else if (ops.Percent(10)) {
            EXPECT_EQ(Error::kOk, rig.Flush());
          } else {
            EXPECT_EQ(Error::kOk, rig.Write(lba, sectors, buf.data()));
          }
          if (i % 10 == 0) {
            ExpectSparseCopyMatchesDense(*rig.disk);
          }
        }
        rig.disk->PowerCut(policy, seed * 0x9e3779b97f4a7c15ull);
        ExpectSparseCopyMatchesDense(*rig.disk);
      }
    }
  }
}

TEST(PhysMemTest, DmaReachability) {
  PhysMem phys(32 * 1024 * 1024);
  void* low = phys.PtrAt(1024 * 1024);
  void* high = phys.PtrAt(20 * 1024 * 1024);
  EXPECT_TRUE(phys.IsDmaReachable(low, 4096));
  EXPECT_FALSE(phys.IsDmaReachable(high, 4096));
  // Straddling the 16 MB boundary is not reachable.
  void* edge = phys.PtrAt(16 * 1024 * 1024 - 100);
  EXPECT_FALSE(phys.IsDmaReachable(edge, 4096));
  EXPECT_EQ(20u * 1024 * 1024, phys.AddrOf(high));
}

}  // namespace
}  // namespace oskit
