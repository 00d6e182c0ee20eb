// Kernel support library tests (§3.2): bring-up, memory setup with
// reservations, IRQ routing, timers, console, argv parsing — and a
// protocol-level session against the GDB stub (§3.5).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/kern/gdb_stub.h"
#include "src/kern/kernel.h"
#include "src/kern/kmon.h"
#include "src/trace/trace.h"

namespace oskit {
namespace {

class KernTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>(&sim_, Machine::Config{});
  }

  Simulation sim_;
  std::unique_ptr<Machine> machine_;
};

TEST_F(KernTest, BootCallsMainWithParsedArgs) {
  BootLoader loader(&machine_->phys());
  MultiBootInfo info = loader.Load("  --flag  value  ");
  KernelEnv kernel(machine_.get(), info);
  std::vector<std::string> seen;
  kernel.Boot([&](int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      seen.emplace_back(argv[i]);
    }
    return 42;
  });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(kernel.exited());
  EXPECT_EQ(42, kernel.exit_code());
  ASSERT_EQ(3u, seen.size());
  EXPECT_EQ("pc0", seen[0]);  // argv[0] is the machine name
  EXPECT_EQ("--flag", seen[1]);
  EXPECT_EQ("value", seen[2]);
  EXPECT_TRUE(machine_->cpu().interrupts_enabled());
}

TEST_F(KernTest, MemorySetupReservesBootModules) {
  BootLoader loader(&machine_->phys());
  std::string module(64 * 1024, 'm');
  loader.AddModule("payload", module.data(), module.size());
  MultiBootInfo info = loader.Load("");
  KernelEnv kernel(machine_.get(), info);

  const BootModule& mod = info.modules[0];
  uint8_t* mod_ptr = static_cast<uint8_t*>(machine_->phys().PtrAt(mod.start));

  // Exhaust the allocator; nothing handed out may intersect the module.
  size_t total = 0;
  for (;;) {
    void* p = kernel.MemAlloc(64 * 1024);
    if (p == nullptr) {
      break;
    }
    auto* q = static_cast<uint8_t*>(p);
    EXPECT_TRUE(q + 64 * 1024 <= mod_ptr || q >= mod_ptr + module.size());
    total += 64 * 1024;
  }
  // Most of the 32 MB machine should still have been allocatable.
  EXPECT_GT(total, 24u * 1024 * 1024);
  // And the module contents survived the onslaught.
  EXPECT_EQ(0, memcmp(mod_ptr, module.data(), module.size()));
  kernel.lmm().AuditOrDie();
}

TEST_F(KernTest, DmaAllocationsComeFromLowMemory) {
  KernelEnv kernel(machine_.get(), MultiBootInfo{});
  void* dma = kernel.MemAlloc(4096, kLmmFlag16Mb);
  ASSERT_NE(nullptr, dma);
  EXPECT_TRUE(machine_->phys().IsDmaReachable(dma, 4096));
  // Generic allocations prefer high memory (§3.3 priority policy).
  void* generic = kernel.MemAlloc(4096);
  ASSERT_NE(nullptr, generic);
  EXPECT_FALSE(machine_->phys().IsDmaReachable(generic, 4096));
  kernel.MemFree(dma, 4096);
  kernel.MemFree(generic, 4096);
}

TEST_F(KernTest, IrqRegistrationRoutesAndUnmasks) {
  KernelEnv kernel(machine_.get(), MultiBootInfo{});
  machine_->cpu().EnableInterrupts();
  int fired = 0;
  kernel.IrqRegister(9, [&] { ++fired; });
  machine_->pic().RaiseIrq(9);
  EXPECT_EQ(1, fired);
  kernel.IrqUnregister(9);
  machine_->pic().RaiseIrq(9);  // masked again: latched but not delivered
  EXPECT_EQ(1, fired);
}

TEST_F(KernTest, TimerDeliversTicks) {
  KernelEnv kernel(machine_.get(), MultiBootInfo{});
  machine_->cpu().EnableInterrupts();
  int ticks = 0;
  kernel.SetTimer(1000, [&] { ++ticks; });
  sim_.clock().RunUntil(10500 * kNsPerUs);
  EXPECT_EQ(10, ticks);
  kernel.StopTimer();
}

TEST_F(KernTest, ConsoleWritesReachTheUart) {
  KernelEnv kernel(machine_.get(), MultiBootInfo{});
  kernel.console().Puts("hello");
  EXPECT_EQ("hello\r\n", machine_->console_uart().TakeOutput());
}

TEST_F(KernTest, CustomTrapHandlerFallsBackToDefault) {
  // §6.2.4: Java/PC installs its own trap handlers "which can still fall
  // back to the default handler for traps that are of no interest."
  KernelEnv kernel(machine_.get(), MultiBootInfo{});
  int caught = 0;
  kernel.SetTrapHandler(kTrapBreakpoint, [&](TrapFrame& frame) {
    ++caught;
    return true;
  });
  machine_->cpu().RaiseTrap(kTrapBreakpoint);
  EXPECT_EQ(1, caught);

  // An unhandled trap must reach the panicking default.
  PanicHandler old = SetPanicHandler(+[](const char*) { throw 42; });
  EXPECT_THROW(machine_->cpu().RaiseTrap(kTrapInvalidOpcode), int);
  SetPanicHandler(old);
}

// ---- GDB remote serial protocol (§3.5) ----

// A tiny protocol-level debugger: frames packets, checks checksums.
class MockGdb {
 public:
  explicit MockGdb(Uart* link) : link_(link) {}

  void Send(const std::string& payload) {
    uint8_t sum = 0;
    for (char c : payload) {
      sum = static_cast<uint8_t>(sum + static_cast<uint8_t>(c));
    }
    char trailer[4];
    snprintf(trailer, sizeof(trailer), "#%02x", sum);
    std::string packet = "$" + payload + trailer;
    link_->InjectRx(packet.data(), packet.size());
  }

  // Pulls one reply packet out of the captured stub output.
  std::string NextReply() {
    buffer_ += link_->TakeOutput();
    size_t dollar = buffer_.find('$');
    if (dollar == std::string::npos) {
      return "";
    }
    size_t hash = buffer_.find('#', dollar);
    if (hash == std::string::npos || hash + 2 >= buffer_.size()) {
      return "";
    }
    std::string payload = buffer_.substr(dollar + 1, hash - dollar - 1);
    buffer_.erase(0, hash + 3);
    return payload;
  }

 private:
  Uart* link_;
  std::string buffer_;
};

TEST_F(KernTest, GdbStubSpeaksTheRemoteProtocol) {
  GdbStub stub(machine_.get(), &machine_->debug_uart());
  MockGdb gdb(&machine_->debug_uart());

  // Seed some memory the debugger will inspect.
  auto* mem = static_cast<uint8_t*>(machine_->phys().PtrAt(0x1000));
  mem[0] = 0xde;
  mem[1] = 0xad;

  // Queue a whole session before the "trap" (the stub drains the RX FIFO):
  gdb.Send("qSupported");
  gdb.Send("g");
  gdb.Send("m1000,2");
  gdb.Send("M1000,2:beef");
  gdb.Send("P8=0011000000000000");  // write pc (reg 8) = 0x1100 (LE)
  gdb.Send("p8");
  gdb.Send("c");

  TrapFrame frame;
  frame.pc = 0x4000;
  frame.gprs[0] = 0x1122334455667788;
  stub.HandleException(5, frame);

  // Stop reply first.
  EXPECT_EQ("T05", gdb.NextReply());
  EXPECT_EQ("PacketSize=4096", gdb.NextReply());
  std::string regs = gdb.NextReply();
  ASSERT_EQ(11u * 16, regs.size());
  EXPECT_EQ("8877665544332211", regs.substr(0, 16));  // gpr0, little endian
  EXPECT_EQ("dead", gdb.NextReply());          // m1000,2
  EXPECT_EQ("OK", gdb.NextReply());            // M write
  EXPECT_EQ("OK", gdb.NextReply());            // P write
  EXPECT_EQ("0011000000000000", gdb.NextReply());  // p8 readback
  // The register write is visible to the interrupted context.
  EXPECT_EQ(0x1100u, frame.pc);
  // The memory write landed.
  EXPECT_EQ(0xbe, mem[0]);
  EXPECT_EQ(0xef, mem[1]);
  EXPECT_GE(stub.packets_handled(), 7u);
}

TEST_F(KernTest, GdbStubTrapEntryWritesEveryRegister) {
  GdbStub stub(machine_.get(), &machine_->debug_uart());
  MockGdb gdb(&machine_->debug_uart());
  Cpu& cpu = machine_->cpu();
  stub.AttachDefaultTraps(&cpu);
  // Wrap the stub's breakpoint entry to see the frame it hands back.
  Cpu::Handler stub_entry = cpu.SetVector(kTrapBreakpoint, nullptr);
  TrapFrame after;
  cpu.SetVector(kTrapBreakpoint, [&](TrapFrame& frame) {
    bool handled = stub_entry(frame);
    after = frame;
    return handled;
  });

  // Register i holds 0x01020304050607i0; GDB wants each little endian.
  auto value = [](int i) { return uint64_t{0x0102030405060700} + i; };
  std::string regs;
  for (int i = 0; i < GdbStub::kNumRegs; ++i) {
    for (int byte = 0; byte < 8; ++byte) {
      char hex[3];
      snprintf(hex, sizeof(hex), "%02x",
               static_cast<unsigned>((value(i) >> (byte * 8)) & 0xff));
      regs += hex;
    }
  }
  gdb.Send("G" + regs.substr(0, regs.size() - 2));  // one byte short
  gdb.Send("G" + regs);
  gdb.Send("g");
  gdb.Send("c");
  cpu.RaiseTrap(kTrapBreakpoint);

  EXPECT_EQ("T05", gdb.NextReply());
  EXPECT_EQ("E01", gdb.NextReply());
  EXPECT_EQ("OK", gdb.NextReply());
  EXPECT_EQ(regs, gdb.NextReply());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(value(i), after.gprs[i]) << "gpr" << i;
  }
  EXPECT_EQ(value(8), after.pc);
  EXPECT_EQ(value(9), after.sp);
  EXPECT_EQ(value(10), after.flags);
}

TEST_F(KernTest, GdbStubStepAndKill) {
  GdbStub stub(machine_.get(), &machine_->debug_uart());
  MockGdb gdb(&machine_->debug_uart());
  gdb.Send("s");
  TrapFrame frame;
  stub.HandleException(5, frame);
  EXPECT_TRUE(stub.step_requested());
  EXPECT_FALSE(stub.killed());
  EXPECT_EQ("T05", gdb.NextReply());

  gdb.Send("k");
  stub.HandleException(5, frame);
  EXPECT_TRUE(stub.killed());
}

TEST_F(KernTest, GdbStubDetachAndBadMemory) {
  GdbStub stub(machine_.get(), &machine_->debug_uart());
  MockGdb gdb(&machine_->debug_uart());
  gdb.Send("mffffffffff,4");  // far beyond physical memory
  gdb.Send("p99");            // register index out of range
  gdb.Send("D");              // detach
  TrapFrame frame;
  stub.HandleException(11, frame);
  EXPECT_EQ("T0b", gdb.NextReply());  // stop reply for SIGSEGV
  EXPECT_EQ("E02", gdb.NextReply());
  EXPECT_EQ("E01", gdb.NextReply());
  EXPECT_EQ("OK", gdb.NextReply());   // detach ack
}

TEST_F(KernTest, GdbStubRejectsBadChecksum) {
  GdbStub stub(machine_.get(), &machine_->debug_uart());
  // A damaged packet, then a good one.
  std::string bad = "$g#00";
  machine_->debug_uart().InjectRx(bad.data(), bad.size());
  MockGdb gdb(&machine_->debug_uart());
  gdb.Send("c");
  TrapFrame frame;
  stub.HandleException(5, frame);
  std::string out = machine_->debug_uart().TakeOutput();
  // The stub NAKed the corrupt packet.
  EXPECT_NE(std::string::npos, out.find('-'));
}

// ---------------------------------------------------------------------------
// kmon trace commands (the src/trace component through the monitor)
// ---------------------------------------------------------------------------

class KmonTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>(&sim_, Machine::Config{});
    // A private trace environment so other tests' counters can't leak in.
    kernel_ = std::make_unique<KernelEnv>(machine_.get(), MultiBootInfo{},
                                          KernelEnv::SleepMode::kFiber, &trace_);
  }

  // Types a command line into the console as if an operator did.
  void Type(const std::string& line) {
    machine_->console_uart().InjectRx(line.data(), line.size());
    machine_->console_uart().InjectRx("\r", 1);
  }

  // Runs one scripted monitor session and returns the console transcript.
  std::string RunSession() {
    KernelMonitor kmon(kernel_.get(), &kernel_->console());
    sim_.Spawn("kmon", [&] {
      TrapFrame frame;
      kmon.Enter(frame);
    });
    EXPECT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
    return machine_->console_uart().TakeOutput();
  }

  trace::TraceEnv trace_;
  Simulation sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<KernelEnv> kernel_;
};

TEST_F(KmonTraceTest, CountersCommandDumpsTheRegistry) {
  kernel_->lmm().Alloc(4096, 0);
  machine_->cpu().EnableInterrupts();
  machine_->cpu().RaiseInterrupt(kIrqBaseVector + 0);

  Type("counters");
  Type("counters lmm.");
  Type("counters no.such.prefix");
  Type("c");
  std::string out = RunSession();

  // Full dump shows every bound subsystem with live values.
  EXPECT_NE(std::string::npos, out.find("lmm.alloc_calls"));
  EXPECT_NE(std::string::npos, out.find("machine.irq.dispatched"));
  // Prefix filtering and the empty-match message both work.
  size_t lmm_section = out.find("counters lmm.");
  ASSERT_NE(std::string::npos, lmm_section);
  EXPECT_NE(std::string::npos, out.find("lmm.free_calls", lmm_section));
  EXPECT_NE(std::string::npos, out.find("no counters match that prefix"));
}

TEST_F(KmonTraceTest, TraceDumpAndClearCommands) {
  machine_->cpu().EnableInterrupts();
  machine_->cpu().RaiseInterrupt(kIrqBaseVector + 0);  // irq-enter / irq-exit

  Type("trace dump");
  Type("trace clear");
  Type("trace dump");
  Type("trace bogus");
  Type("c");
  std::string out = RunSession();

  size_t first_dump = out.find("trace:");
  ASSERT_NE(std::string::npos, first_dump);
  EXPECT_NE(std::string::npos, out.find("irq-enter", first_dump));
  EXPECT_NE(std::string::npos, out.find("irq-exit", first_dump));
  EXPECT_NE(std::string::npos, out.find("trace ring cleared"));
  EXPECT_NE(std::string::npos, out.find("trace ring empty"));
  EXPECT_NE(std::string::npos, out.find("usage: trace dump | trace clear"));
}

TEST_F(KmonTraceTest, HelpListsTraceCommands) {
  Type("help");
  Type("c");
  std::string out = RunSession();
  EXPECT_NE(std::string::npos, out.find("counters [prefix]"));
  EXPECT_NE(std::string::npos, out.find("trace dump|clear"));
  EXPECT_NE(std::string::npos, out.find("hot"));
}

TEST_F(KmonTraceTest, HotCommandDumpsSpanAttribution) {
  // Closed spans show in the self-time-sorted table; a span still open at
  // the prompt (the operator broke in mid-request) is listed separately.
  trace::SpanSite serve(&trace_, "kmon.test.serve");
  trace::SpanSite stuck(&trace_, "kmon.test.stuck");
  serve.AddSample(640);
  trace_.spans.Begin(&stuck);

  Type("hot");
  Type("c");
  std::string out = RunSession();
  trace_.spans.End(&stuck);

  size_t header = out.find("self%");
  ASSERT_NE(std::string::npos, header);
  EXPECT_NE(std::string::npos, out.find("kmon.test.serve", header));
  EXPECT_NE(std::string::npos, out.find("100.0%", header));
  size_t open = out.find("open spans");
  ASSERT_NE(std::string::npos, open);
  EXPECT_NE(std::string::npos, out.find("OPEN kmon.test.stuck", open));

  // The span counters are visible through the counters command path too.
  EXPECT_EQ(640u, trace_.registry.Value("kmon.test.serve.self_ns"));
}

}  // namespace
}  // namespace oskit
