// Fault-injection environment and recovery-path tests: the deterministic
// FaultEnv itself, the SimClock cancel semantics watchdogs depend on, the
// IDE driver's retry/backoff/watchdog-reset ladder, AMM error surfacing,
// PIT skew compensation, and the kmon `fault` command.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/amm/amm.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fault/fault.h"
#include "src/kern/kmon.h"
#include "src/testbed/testbed.h"

namespace oskit {
namespace {

// ---------------------------------------------------------------------------
// FaultEnv
// ---------------------------------------------------------------------------

TEST(FaultEnvTest, SameSeedSameFirePattern) {
  fault::FaultEnv a(42);
  fault::FaultEnv b(42);
  fault::FaultSpec spec;
  spec.probability_percent = 30;
  a.Arm("x", spec);
  b.Arm("x", spec);
  std::vector<bool> pa;
  std::vector<bool> pb;
  for (int i = 0; i < 500; ++i) {
    pa.push_back(a.ShouldFail("x"));
    pb.push_back(b.ShouldFail("x"));
  }
  EXPECT_EQ(pa, pb);
  EXPECT_GT(a.fires("x"), 0u);
  EXPECT_LT(a.fires("x"), 500u);
}

TEST(FaultEnvTest, NthCallFiresExactlyOnce) {
  fault::FaultEnv env(1);
  fault::FaultSpec spec;
  spec.nth_call = 3;
  env.Arm("x", spec);
  int fires = 0;
  for (int i = 1; i <= 10; ++i) {
    if (env.ShouldFail("x")) {
      EXPECT_EQ(3, i);
      ++fires;
    }
  }
  EXPECT_EQ(1, fires);
  EXPECT_EQ(10u, env.calls("x"));
}

TEST(FaultEnvTest, MaxFiresCapsInjection) {
  fault::FaultEnv env(1);
  fault::FaultSpec spec;
  spec.probability_percent = 100;
  spec.max_fires = 3;
  env.Arm("x", spec);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    fires += env.ShouldFail("x") ? 1 : 0;
  }
  EXPECT_EQ(3, fires);
}

TEST(FaultEnvTest, DisarmedSitesNeverFire) {
  fault::FaultEnv env(1);
  fault::FaultSpec spec;
  spec.probability_percent = 100;
  env.Arm("x", spec);
  EXPECT_TRUE(env.armed("x"));
  EXPECT_TRUE(env.ShouldFail("x"));
  env.Disarm("x");
  EXPECT_FALSE(env.armed("x"));
  EXPECT_FALSE(env.ShouldFail("x"));
  env.Arm("y", spec);
  env.DisarmAll();
  EXPECT_FALSE(env.ShouldFail("x"));
  EXPECT_FALSE(env.ShouldFail("y"));
  // A site nobody armed is the production fast path.
  EXPECT_FALSE(env.ShouldFail("never.armed"));
}

TEST(FaultEnvTest, ReseedResetsCountsKeepsArming) {
  fault::FaultEnv env(9);
  fault::FaultSpec spec;
  spec.probability_percent = 100;
  env.Arm("x", spec);
  (void)env.ShouldFail("x");
  EXPECT_EQ(1u, env.calls("x"));
  env.Reseed(10);
  EXPECT_EQ(10u, env.seed());
  EXPECT_EQ(0u, env.calls("x"));
  EXPECT_EQ(0u, env.fires("x"));
  EXPECT_EQ(0u, env.total_fires());
  EXPECT_TRUE(env.armed("x"));
}

TEST(FaultEnvTest, BindTraceExportsFireCounters) {
  trace::TraceEnv tenv;
  fault::FaultEnv env(1);
  env.BindTrace(&tenv);
  fault::FaultSpec spec;
  spec.probability_percent = 100;
  env.Arm("disk.stuck", spec);
  EXPECT_TRUE(env.ShouldFail("disk.stuck"));
  EXPECT_EQ(1u, tenv.registry.Value("fault.disk.stuck"));
  // Unbinding removes the counters so the registry can outlive the env.
  env.BindTrace(nullptr);
  EXPECT_EQ(0u, tenv.registry.Value("fault.disk.stuck"));
}

// ---------------------------------------------------------------------------
// SimClock cancel semantics (the watchdog contract)
// ---------------------------------------------------------------------------

TEST(SimClockFaultTest, CancelFailsOnceAnEventHasRun) {
  SimClock clock;
  int ran = 0;
  SimClock::EventId a = clock.ScheduleAfter(10, [&] { ++ran; });
  SimClock::EventId b = clock.ScheduleAfter(20, [&] { ++ran; });
  EXPECT_TRUE(clock.RunOne());
  EXPECT_EQ(1, ran);
  // `a` already ran: a watchdog user must see the cancel FAIL, that is how
  // it learns the timeout fired first.
  EXPECT_FALSE(clock.Cancel(a));
  // `b` is still pending: cancel succeeds exactly once and the event never
  // runs.
  EXPECT_TRUE(clock.Cancel(b));
  EXPECT_FALSE(clock.Cancel(b));
  EXPECT_FALSE(clock.RunOne());
  EXPECT_EQ(1, ran);
  EXPECT_FALSE(clock.HasPending());
}

// ---------------------------------------------------------------------------
// IDE retry / watchdog recovery
// ---------------------------------------------------------------------------

class IdeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>(&sim_, Machine::Config{});
    // The disk must exist before the kernel boots so the kernel wires the
    // fault env into it.
    machine_->AddDisk(2048);
    kernel_ = std::make_unique<KernelEnv>(machine_.get(), MultiBootInfo{},
                                          KernelEnv::SleepMode::kFiber,
                                          &tenv_, &fenv_);
    machine_->cpu().EnableInterrupts();
    fdev_ = DefaultFdevEnv(kernel_.get());
    EXPECT_EQ(Error::kOk,
              linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry_));
    auto device = registry_.LookupByName("hda");
    blkio_ = ComPtr<BlkIo>::FromQuery(device.get());
    ASSERT_TRUE(blkio_);
  }

  trace::TraceEnv tenv_;
  fault::FaultEnv fenv_{7};
  Simulation sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<KernelEnv> kernel_;
  FdevEnv fdev_;
  DeviceRegistry registry_;
  ComPtr<BlkIo> blkio_;
};

TEST_F(IdeFaultTest, TransientReadErrorIsRetried) {
  fault::FaultSpec spec;
  spec.nth_call = 1;
  fenv_.Arm("disk.read.error", spec);
  sim_.Spawn("io", [&] {
    uint8_t buf[512];
    size_t actual = 0;
    EXPECT_EQ(Error::kOk, blkio_->Read(buf, 0, sizeof(buf), &actual));
    EXPECT_EQ(sizeof(buf), actual);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_EQ(1u, fenv_.fires("disk.read.error"));
  EXPECT_GE(tenv_.registry.Value("glue.ide.retries"), 1u);
  EXPECT_EQ(0u, tenv_.registry.Value("glue.ide.errors_surfaced"));
}

TEST_F(IdeFaultTest, StuckControllerIsWatchdogReset) {
  fault::FaultSpec spec;
  spec.nth_call = 1;
  spec.max_fires = 1;
  fenv_.Arm("disk.stuck", spec);
  sim_.Spawn("io", [&] {
    uint8_t buf[512] = {0x5a};
    size_t actual = 0;
    EXPECT_EQ(Error::kOk, blkio_->Write(buf, 0, sizeof(buf), &actual));
    EXPECT_EQ(Error::kOk, blkio_->Read(buf, 0, sizeof(buf), &actual));
    EXPECT_EQ(0x5a, buf[0]);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_EQ(1u, fenv_.fires("disk.stuck"));
  EXPECT_GE(tenv_.registry.Value("glue.ide.watchdog_resets"), 1u);
  // The watchdog waited out the 50 ms timeout before resetting.
  EXPECT_GE(sim_.clock().Now(), static_cast<SimTime>(50 * kNsPerMs));
  EXPECT_EQ(0u, tenv_.registry.Value("glue.ide.errors_surfaced"));
}

TEST_F(IdeFaultTest, PersistentErrorSurfacesAfterRetries) {
  fault::FaultSpec spec;
  spec.probability_percent = 100;
  fenv_.Arm("disk.write.error", spec);
  sim_.Spawn("io", [&] {
    uint8_t buf[512] = {};
    size_t actual = 0;
    // Every attempt fails: after the retry budget the error must surface as
    // a return value, never a panic.
    EXPECT_EQ(Error::kIo, blkio_->Write(buf, 0, sizeof(buf), &actual));
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_GE(tenv_.registry.Value("glue.ide.retries"), 4u);
  EXPECT_EQ(1u, tenv_.registry.Value("glue.ide.errors_surfaced"));
}

// ---------------------------------------------------------------------------
// AMM error surfacing
// ---------------------------------------------------------------------------

TEST(AmmFaultTest, InjectedOomSurfacesAndRetrySucceeds) {
  fault::FaultEnv fenv(3);
  Amm amm(0, 1 << 20);
  amm.SetFaultEnv(&fenv);
  fault::FaultSpec spec;
  spec.nth_call = 1;
  fenv.Arm("amm.alloc", spec);
  uint64_t addr = 0;
  EXPECT_EQ(Error::kNoSpace, amm.Allocate(&addr, 4096, Amm::kAllocated));
  EXPECT_EQ(Error::kOk, amm.Allocate(&addr, 4096, Amm::kAllocated));
}

// ---------------------------------------------------------------------------
// PIT skew compensation
// ---------------------------------------------------------------------------

TEST(PitFaultTest, SkewedTickTrainIsSteeredBack) {
  trace::TraceEnv tenv;
  fault::FaultEnv fenv(5);
  Simulation sim;
  Machine machine(&sim, Machine::Config{});
  KernelEnv kernel(&machine, MultiBootInfo{}, KernelEnv::SleepMode::kFiber,
                   &tenv, &fenv);
  machine.cpu().EnableInterrupts();

  fault::FaultSpec spec;
  spec.nth_call = 2;  // the second tick lands early/late by 20%
  spec.arg = 20;
  fenv.Arm("pit.skew", spec);

  uint64_t ticks = 0;
  kernel.SetTimer(100, [&ticks] { ++ticks; });
  sim.Spawn("wait", [&] { sim.SleepFor(100 * kNsPerMs); });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  kernel.StopTimer();

  EXPECT_GE(ticks, 8u);
  EXPECT_EQ(1u, tenv.registry.Value("machine.pit.skew_events"));
  // The tick after the skew steers back toward the nominal train.
  EXPECT_GE(tenv.registry.Value("machine.pit.skew_compensations"), 1u);
}

// ---------------------------------------------------------------------------
// kmon `fault` command
// ---------------------------------------------------------------------------

TEST(KmonFaultTest, ArmsListsAndReseedsSites) {
  Simulation sim;
  Machine machine(&sim, Machine::Config{});
  fault::FaultEnv fenv(1);
  KernelEnv kernel(&machine, MultiBootInfo{}, KernelEnv::SleepMode::kFiber,
                   nullptr, &fenv);
  KernelMonitor kmon(&kernel, &kernel.console());

  auto type = [&](const std::string& line) {
    machine.console_uart().InjectRx(line.data(), line.size());
    machine.console_uart().InjectRx("\r", 1);
  };
  type("fault");
  type("fault arm disk.stuck 0 3");
  type("fault");
  type("fault arm bad.site 200");
  type("fault disarm disk.stuck");
  type("fault seed 7");
  type("c");

  sim.Spawn("kmon", [&] {
    TrapFrame frame;
    frame.trapno = kTrapBreakpoint;
    kmon.Enter(frame);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim.Run());

  std::string out = machine.console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find("no fault sites touched yet"));
  EXPECT_NE(std::string::npos, out.find("armed disk.stuck"));
  EXPECT_NE(std::string::npos, out.find("nth=3"));
  EXPECT_NE(std::string::npos, out.find("usage: fault arm"));
  EXPECT_NE(std::string::npos, out.find("reseeded to 7"));
  EXPECT_FALSE(fenv.armed("disk.stuck"));
  EXPECT_EQ(7u, fenv.seed());
}

// Each host's kernel owns its fault environment: a site armed from one
// host's monitor fires there and is unarmed on every other host.
TEST(KmonFaultTest, ArmOnOneHostLeavesAnotherHostUnarmed) {
  testbed::World world;
  testbed::Host& a = world.AddHost("a", testbed::NetConfig::kNativeBsd);
  testbed::Host& b = world.AddHost("b", testbed::NetConfig::kNativeBsd);
  KernelMonitor kmon(a.kernel.get(), &a.kernel->console());
  for (const std::string line : {"fault arm nic.irq.spurious 100", "c"}) {
    a.machine->console_uart().InjectRx(line.data(), line.size());
    a.machine->console_uart().InjectRx("\r", 1);
  }
  world.sim().Spawn("kmon", [&] {
    TrapFrame frame;
    frame.trapno = kTrapBreakpoint;
    kmon.Enter(frame);
  });
  world.RunToCompletion();
  ASSERT_TRUE(a.kernel->fault().armed("nic.irq.spurious"));
  EXPECT_FALSE(b.kernel->fault().armed("nic.irq.spurious"));

  world.sim().Spawn("ping", [&] {
    SimTime rtt = 0;
    EXPECT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
    EXPECT_EQ(Error::kOk, b.stack->Ping(a.addr, kNsPerSec, &rtt));
  });
  world.RunToCompletion();
  EXPECT_GT(a.kernel->fault().fires("nic.irq.spurious"), 0u);
  EXPECT_EQ(a.kernel->fault().fires("nic.irq.spurious"),
            a.trace.registry.Value("fault.nic.irq.spurious"));
  EXPECT_EQ(0u, b.kernel->fault().total_fires());
  EXPECT_FALSE(b.trace.registry.Has("fault.nic.irq.spurious"));
}

}  // namespace
}  // namespace oskit
