// Tests for the paper's future-work items implemented in this reproduction:
// the high-level allocator (§6.2.10) and the local kernel monitor (§3.5),
// plus the AMM+paging composition (§3.3's "management of processes' address
// spaces" use case) and the Linux-idiom baseline stack under packet loss.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/amm/amm.h"
#include "src/kern/kmon.h"
#include "src/libc/quickalloc.h"
#include "src/libc/string.h"
#include "src/testbed/testbed.h"

namespace oskit {
namespace {

// ---------------------------------------------------------------------------
// QuickAlloc (§6.2.10 deficiency 2, implemented)
// ---------------------------------------------------------------------------

TEST(QuickAllocTest, SmallBlocksComeFromSlabs) {
  libc::QuickAlloc quick(libc::HostMemEnv());
  std::vector<void*> blocks;
  for (int i = 0; i < 1000; ++i) {
    void* p = quick.Alloc(64);
    ASSERT_NE(nullptr, p);
    memset(p, 0xcc, 64);
    blocks.push_back(p);
  }
  EXPECT_EQ(1000u, quick.fast_hits());
  // 32 KB slabs of 64-byte blocks: ~2 refills for 1000 blocks.
  EXPECT_LE(quick.slab_refills(), 3u);
  for (void* p : blocks) {
    quick.Free(p, 64);
  }
  // Freed blocks are recycled without new slabs.
  uint64_t refills = quick.slab_refills();
  for (int i = 0; i < 1000; ++i) {
    blocks[i] = quick.Alloc(64);
  }
  EXPECT_EQ(refills, quick.slab_refills());
  for (void* p : blocks) {
    quick.Free(p, 64);
  }
}

TEST(QuickAllocTest, NoOverlapAcrossClasses) {
  libc::QuickAlloc quick(libc::HostMemEnv());
  struct Block {
    uint8_t* p;
    size_t size;
  };
  std::vector<Block> live;
  const size_t sizes[] = {16, 48, 100, 200, 500, 1000, 2000};
  for (int i = 0; i < 500; ++i) {
    size_t size = sizes[i % 7];
    auto* p = static_cast<uint8_t*>(quick.Alloc(size));
    ASSERT_NE(nullptr, p);
    for (const Block& other : live) {
      ASSERT_TRUE(p + size <= other.p || other.p + other.size <= p)
          << "overlapping allocation";
    }
    memset(p, i & 0xff, size);
    live.push_back({p, size});
  }
  for (const Block& block : live) {
    quick.Free(block.p, block.size);
  }
}

TEST(QuickAllocTest, LargeBlocksPassThrough) {
  libc::QuickAlloc quick(libc::HostMemEnv());
  void* big = quick.Alloc(100000);
  ASSERT_NE(nullptr, big);
  EXPECT_EQ(1u, quick.large_passthrough());
  quick.Free(big, 100000);
}

TEST(QuickAllocTest, LayersUnderMallocArena) {
  // The §6.2.10 suggestion verbatim: the conventional allocator layered on
  // the low-level one, underneath the C library's malloc.
  libc::QuickAlloc quick(libc::HostMemEnv());
  libc::MallocArena arena(quick.AsMemEnv());
  auto* s = static_cast<char*>(arena.Malloc(32));
  libc::Strcpy(s, "layered");
  auto* grown = static_cast<char*>(arena.Realloc(s, 512));
  EXPECT_STREQ("layered", grown);
  arena.Free(grown);
  EXPECT_EQ(0u, arena.blocks_in_use());
  EXPECT_GT(quick.fast_hits(), 0u);
}

// ---------------------------------------------------------------------------
// kmon (§3.5 future work, implemented)
// ---------------------------------------------------------------------------

class KmonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>(&sim_, Machine::Config{});
    kernel_ = std::make_unique<KernelEnv>(machine_.get(), MultiBootInfo{});
  }

  // Types a command line into the console as if an operator did.
  void Type(const std::string& line) {
    machine_->console_uart().InjectRx(line.data(), line.size());
    machine_->console_uart().InjectRx("\r", 1);
  }

  Simulation sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<KernelEnv> kernel_;
};

TEST_F(KmonTest, InspectsRegistersAndMemory) {
  KernelMonitor kmon(kernel_.get(), &kernel_->console());
  auto* mem = static_cast<uint8_t*>(machine_->phys().PtrAt(0x2000));
  mem[0] = 0xab;
  mem[1] = 0xcd;

  Type("r");
  Type("m 0x2000 2");
  Type("w 0x2000 0x7f");
  Type("bogus");
  Type("c");

  bool returned = false;
  sim_.Spawn("kmon", [&] {
    TrapFrame frame;
    frame.trapno = kTrapBreakpoint;
    frame.pc = 0x1234;
    frame.gprs[0] = 0xfeed;
    kmon.Enter(frame);
    returned = true;
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(returned);
  std::string out = machine_->console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find("pc=0x1234"));
  EXPECT_NE(std::string::npos, out.find("r0=0xfeed"));
  EXPECT_NE(std::string::npos, out.find("ab cd"));
  EXPECT_NE(std::string::npos, out.find("unknown command 'bogus'"));
  EXPECT_EQ(0x7f, mem[0]);  // the poke landed
  EXPECT_EQ(5u, kmon.commands_handled());
  EXPECT_FALSE(kmon.halted());
}

TEST_F(KmonTest, CatchesTrapsWhenAttached) {
  KernelMonitor kmon(kernel_.get(), &kernel_->console());
  kmon.AttachDefaultTraps();
  Type("r");
  Type("s");
  bool resumed = false;
  sim_.Spawn("faulting-kernel", [&] {
    machine_->cpu().RaiseTrap(kTrapDivide);
    resumed = true;  // the monitor continued us
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(kmon.step_requested());
  std::string out = machine_->console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find("stopped at trap 0"));
}

TEST_F(KmonTest, TranslatesThroughPageDirectory) {
  KernelMonitor kmon(kernel_.get(), &kernel_->console());
  PageDirectory pd(kernel_.get());
  ASSERT_EQ(Error::kOk, pd.MapPage(0x00400000, 0x00123000, kPteWritable));
  kmon.SetPageDirectory(&pd);
  Type("t 0x400010");
  Type("t 0x999000");
  Type("c");
  sim_.Spawn("kmon", [&] {
    TrapFrame frame;
    kmon.Enter(frame);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  std::string out = machine_->console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find("pa 0x123010 rw"));
  EXPECT_NE(std::string::npos, out.find("not mapped"));
}

TEST_F(KmonTest, ProgramsNicMitigationAndRejectsWrappedInput) {
  VirtualSwitch wire(&sim_.clock(), EthernetWire::Config{}, &kernel_->trace());
  NicHw* nic0 = machine_->AddNic(&wire, EtherAddr{{2, 0, 0, 0, 0, 1}}, 11);
  NicHw* nic1 = machine_->AddNic(&wire, EtherAddr{{2, 0, 0, 0, 0, 2}}, 12);
  const NicHw::RxMitigation before = nic0->rx_mitigation();
  KernelMonitor kmon(kernel_.get(), &kernel_->console());
  Type("nicmit");
  Type("nicmit 1 8 1000");
  Type("nicmit 0 -1 5");                 // Strtoul would negate to 2^64-1
  Type("nicmit 0 4 18446744073709552");  // * 1000 wraps to 384 ns
  Type("nicmit 0 4 99999999999999999999999");  // past 2^64: saturates
  Type("nicmit 0 +4 5");
  Type("nicmit 0 0 5");                  // threshold below 1
  Type("nicmit 0 4");                    // a number short
  Type("nicmit 2 4 5");                  // no such NIC
  Type("c");
  sim_.Spawn("kmon", [&] {
    TrapFrame frame;
    kmon.Enter(frame);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  std::string out = machine_->console_uart().TakeOutput();

  EXPECT_NE(std::string::npos, out.find("nic0: threshold=1 holdoff_us=0"));
  EXPECT_NE(std::string::npos, out.find("nic1: threshold=1 holdoff_us=0"));
  EXPECT_NE(std::string::npos, out.find("nic1: threshold=8 holdoff_us=1000"));
  EXPECT_EQ(8u, nic1->rx_mitigation().frame_threshold);
  EXPECT_EQ(1000 * kNsPerUs, nic1->rx_mitigation().holdoff_ns);

  size_t usages = 0;
  for (size_t at = out.find("usage: nicmit"); at != std::string::npos;
       at = out.find("usage: nicmit", at + 1)) {
    ++usages;
  }
  EXPECT_EQ(6u, usages);
  EXPECT_NE(std::string::npos, out.find("no such NIC"));
  EXPECT_EQ(before.frame_threshold, nic0->rx_mitigation().frame_threshold);
  EXPECT_EQ(before.holdoff_ns, nic0->rx_mitigation().holdoff_ns);
}

// ---------------------------------------------------------------------------
// AMM + paging composition: a process address space (§3.3's use case)
// ---------------------------------------------------------------------------

TEST(AddressSpaceTest, AmmPlansAndPagingRealizes) {
  Simulation sim;
  Machine machine(&sim, Machine::Config{});
  KernelEnv kernel(&machine, MultiBootInfo{});

  // The AMM manages the process's virtual layout; the LMM provides frames;
  // the page directory realizes the mapping.
  Amm aspace(0x00100000, 0x40000000);  // 1 MB .. 1 GB user range
  PageDirectory pd(&kernel);

  auto map_region = [&](uint64_t size, uint32_t amm_flags, uint64_t* out_va) {
    uint64_t va = 0x00100000;
    ASSERT_EQ(Error::kOk, aspace.Allocate(&va, size, amm_flags, /*align=*/12));
    for (uint64_t off = 0; off < size; off += kPageSize) {
      void* frame = kernel.lmm().AllocPage(0);
      ASSERT_NE(nullptr, frame);
      uint32_t pa = static_cast<uint32_t>(machine.phys().AddrOf(frame));
      ASSERT_EQ(Error::kOk, pd.MapPage(static_cast<uint32_t>(va + off), pa,
                                       kPteWritable | kPteUser));
    }
    *out_va = va;
  };

  uint64_t text_va = 0;
  uint64_t heap_va = 0;
  map_region(16 * kPageSize, 1 /*text*/, &text_va);
  map_region(64 * kPageSize, 2 /*heap*/, &heap_va);
  EXPECT_NE(text_va, heap_va);
  aspace.AuditOrDie();

  // Both the plan and the realization agree, and distinct virtual pages hit
  // distinct physical frames.
  std::set<uint32_t> frames;
  for (uint64_t off = 0; off < 64 * kPageSize; off += kPageSize) {
    uint32_t pa = 0;
    uint32_t flags = 0;
    ASSERT_EQ(Error::kOk,
              pd.Translate(static_cast<uint32_t>(heap_va + off), &pa, &flags));
    EXPECT_TRUE(frames.insert(pa & ~(kPageSize - 1)).second);
  }
  // Unmapped gap between regions faults.
  uint64_t start = 0;
  uint64_t size = 0;
  uint32_t flags32 = 0;
  ASSERT_EQ(Error::kOk, aspace.Lookup(heap_va, &start, &size, &flags32));
  EXPECT_EQ(2u, flags32);
}

// ---------------------------------------------------------------------------
// Baseline Linux-idiom stack: go-back-N recovery under loss
// ---------------------------------------------------------------------------

TEST(LinuxStackFaultTest, RecoversFromLossViaRetransmission) {
  EthernetWire::Config wire;
  wire.loss_percent = 10;
  wire.fault_seed = 5;
  testbed::World world(wire);
  world.AddHost("rx", testbed::NetConfig::kNativeLinux);
  world.AddHost("tx", testbed::NetConfig::kNativeLinux);

  constexpr size_t kTotal = 96 * 1024;
  size_t received = 0;
  uint64_t checksum = 0;
  world.sim().Spawn("rx", [&] {
    ComPtr<Socket> listener = world.host(0).MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, 5001}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    std::vector<uint8_t> buf(8192);
    size_t n = 0;
    while (Ok(conn->Recv(buf.data(), buf.size(), &n)) && n > 0) {
      for (size_t i = 0; i < n; ++i) {
        checksum = checksum * 131 + buf[i];
      }
      received += n;
    }
  });
  uint64_t expect_checksum = 0;
  world.sim().Spawn("tx", [&] {
    ComPtr<Socket> conn = world.host(1).MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{world.host(0).addr, 5001}));
    std::vector<uint8_t> buf(4096);
    size_t sent = 0;
    uint8_t v = 0;
    while (sent < kTotal) {
      for (auto& byte : buf) {
        byte = v++;
        expect_checksum = expect_checksum * 131 + byte;
      }
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Send(buf.data(), buf.size(), &n));
      sent += n;
    }
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });
  world.RunToCompletion();
  EXPECT_EQ(kTotal, received);
  EXPECT_EQ(expect_checksum, checksum);
  EXPECT_GT(world.host(1).linux_stack->counters().tcp_retransmits, 0u);
}

}  // namespace
}  // namespace oskit
