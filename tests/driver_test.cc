// Encapsulated-driver tests (§3.6, §4.7): the Linux-idiom Ethernet driver
// and its glue (zero-copy vs copy transmit paths), the Linux-idiom IDE
// driver behind BlkIo (sleep/wakeup through the osenv), the FreeBSD-idiom
// tty with clists, skbuff primitives, the fdev registry where drivers
// from both donor systems coexist, and the NIC's RX buffers on their way to
// either stack.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/com/memblkio.h"
#include "src/dev/freebsd/freebsd_char.h"
#include "src/dev/freebsd/freebsd_ether.h"
#include "src/dev/linux/linux_glue.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/net/mbuf_bufio.h"
#include "src/testbed/testbed.h"
#include "tests/bounds_abuse.h"

// Calls to the global operator new in this test binary (tests/new_counter.cc).
size_t GlobalNewCalls();

namespace oskit {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wire_ = std::make_unique<VirtualSwitch>(&sim_.clock(), EthernetWire::Config{}, &tenv_);
    machine_ = std::make_unique<Machine>(&sim_, Machine::Config{});
    kernel_ = std::make_unique<KernelEnv>(machine_.get(), MultiBootInfo{});
    machine_->cpu().EnableInterrupts();
    fdev_ = DefaultFdevEnv(kernel_.get());
  }

  // Allocates skbuffs from the kernel's heap, as the glue does.
  linuxdev::LinuxKernelEnv SkbEnv() {
    linuxdev::LinuxKernelEnv kenv;
    kenv.kmalloc = +[](void* ctx, size_t size) -> void* {
      return static_cast<KernelEnv*>(ctx)->MemAlloc(size);
    };
    kenv.kfree = +[](void* ctx, void* p, size_t size) {
      static_cast<KernelEnv*>(ctx)->MemFree(p, size);
    };
    kenv.ctx = kernel_.get();
    return kenv;
  }

  trace::TraceEnv tenv_;  // the fabric's
  Simulation sim_;
  std::unique_ptr<VirtualSwitch> wire_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<KernelEnv> kernel_;
  FdevEnv fdev_;
};

// ---- skbuff primitives ----

TEST_F(DriverTest, SkbuffCursorDiscipline) {
  linuxdev::LinuxKernelEnv kenv = SkbEnv();

  linuxdev::sk_buff* skb = linuxdev::dev_alloc_skb(kenv, 100);
  ASSERT_NE(nullptr, skb);
  linuxdev::skb_reserve(skb, 16);
  uint8_t* put = linuxdev::skb_put(skb, 20);
  memset(put, 0xaa, 20);
  EXPECT_EQ(20u, skb->len);
  uint8_t* pushed = linuxdev::skb_push(skb, 4);
  EXPECT_EQ(24u, skb->len);
  EXPECT_EQ(put - 4, pushed);
  linuxdev::skb_pull(skb, 10);
  EXPECT_EQ(14u, skb->len);
  linuxdev::kfree_skb(kenv, skb);
}

// ---- Linux Ethernet driver + glue ----

// A recording NetIo standing in for a protocol stack.  With `keep` set it
// also holds on to every packet it is handed, as a forwarding stack would.
class RecorderNetIo final : public ComObject<RecorderNetIo, NetIo> {
 public:
  Error Push(BufIo* packet, size_t size) override {
    std::vector<uint8_t> data(size);
    size_t actual = 0;
    packet->Read(data.data(), 0, size, &actual);
    frames.push_back(std::move(data));
    // Zero-copy evidence: a received skbuff always maps.
    void* addr = nullptr;
    mapped_ok = Ok(packet->Map(&addr, 0, size));
    if (keep) {
      kept.push_back(ComPtr<BufIo>::Retain(packet));
    }
    return Error::kOk;
  }

  std::vector<std::vector<uint8_t>> frames;
  bool mapped_ok = false;
  bool keep = false;
  std::vector<ComPtr<BufIo>> kept;

 private:
  friend class RefCounted<RecorderNetIo>;
  ~RecorderNetIo() = default;
};

// Timer services are required: each driver checks them once, at
// construction, rather than finding them missing at its first watchdog.
TEST_F(DriverTest, DriversRefuseAnEnvWithoutTimers) {
  NicHw* nic = machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 1}}, 11);
  DiskHw* disk = machine_->AddDisk(256);
  FdevEnv no_timers = fdev_;
  no_timers.timer_cancel = nullptr;
  PanicHandler old = SetPanicHandler(+[](const char*) { throw 1; });
  EXPECT_THROW((void)new linuxdev::LinuxEtherDev(no_timers, nic, "eth0"), int);
  EXPECT_THROW((void)new linuxdev::LinuxIdeDev(no_timers, disk, "hda"), int);
  EXPECT_THROW(freebsddev::BsdEtherDriver(no_timers, nic, nullptr), int);
  SetPanicHandler(old);
}

TEST_F(DriverTest, LinuxEtherRoundTripAndXmitPaths) {
  NicHw* nic_a = machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 1}}, 11);
  NicHw* nic_b = machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 2}}, 12);
  (void)nic_a;
  (void)nic_b;

  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk,
            linuxdev::InitLinuxEthernet(fdev_, machine_.get(), &registry));
  EXPECT_EQ(2u, registry.count());

  auto devices = registry.LookupByInterface(EtherDev::kIid);
  ASSERT_EQ(2u, devices.size());
  auto* dev_a = static_cast<linuxdev::LinuxEtherDev*>(devices[0].get());
  

  ComPtr<RecorderNetIo> rx_a(new RecorderNetIo());
  ComPtr<RecorderNetIo> rx_b(new RecorderNetIo());
  NetIo* tx_a = nullptr;
  NetIo* tx_b = nullptr;
  ComPtr<EtherDev> ea = ComPtr<EtherDev>::FromQuery(devices[0].get());
  ComPtr<EtherDev> eb = ComPtr<EtherDev>::FromQuery(devices[1].get());
  ASSERT_EQ(Error::kOk, ea->Open(rx_a.get(), &tx_a));
  ASSERT_EQ(Error::kOk, eb->Open(rx_b.get(), &tx_b));
  ComPtr<NetIo> tx_a_owned(tx_a);
  ComPtr<NetIo> tx_b_owned(tx_b);

  EtherAddr addr_a;
  ea->GetAddr(&addr_a);
  EXPECT_EQ(1, addr_a.bytes[5]);

  // Contiguous packet (a MemBlkIo maps): the glue manufactures a fake
  // skbuff — no copy.
  uint8_t frame[64] = {2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x08, 0x00};
  for (size_t i = 14; i < sizeof(frame); ++i) {
    frame[i] = static_cast<uint8_t>(i);
  }
  auto contiguous = MemBlkIo::CreateFrom(frame, sizeof(frame));
  ASSERT_EQ(Error::kOk, tx_a_owned->Push(contiguous.get(), sizeof(frame)));
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);
  ASSERT_EQ(1u, rx_b->frames.size());
  EXPECT_EQ(0, memcmp(rx_b->frames[0].data(), frame, sizeof(frame)));
  EXPECT_TRUE(rx_b->mapped_ok) << "received skbuff should be mappable";
  EXPECT_EQ(1u, dev_a->counters().fake_skbuff);
  EXPECT_EQ(0u, dev_a->counters().copied);

  // Discontiguous packet (a 3-mbuf chain: header + two payload pieces, the
  // shape a TCP segment takes when its payload straddles a cluster
  // boundary): the wrapper speaks BufIoVec, so the glue gathers all three
  // segments through the driver's DMA — the flatten counters must not move.
  net::MbufPool pool;
  {
    net::MBuf* chain = pool.GetHeaderAligned(14);
    memcpy(chain->data, frame, 14);
    net::MBuf* body1 = pool.FromData(frame + 14, 25);
    net::MBuf* body2 = pool.FromData(frame + 39, sizeof(frame) - 39);
    chain->next = body1;
    body1->next = body2;
    body1->pkt_len = 0;
    body2->pkt_len = 0;
    chain->pkt_len = sizeof(frame);
    auto io = net::MbufBufIo::Wrap(&pool, chain);
    ASSERT_EQ(Error::kOk, tx_a_owned->Push(io.get(), sizeof(frame)));
  }
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);
  ASSERT_EQ(2u, rx_b->frames.size());
  EXPECT_EQ(0, memcmp(rx_b->frames[1].data(), frame, sizeof(frame)));
  EXPECT_EQ(1u, dev_a->counters().sg_frames);
  EXPECT_EQ(3u, dev_a->counters().sg_segments);
  EXPECT_EQ(0u, dev_a->counters().copied);
  EXPECT_EQ(0u, dev_a->counters().copied_bytes);

  // The same chain over a driver bound without gather DMA (the Linux
  // 2.0.29 driver): the glue falls back to its Read() copy path (§4.7.3).
  dev_a->WithoutGatherDma();
  {
    net::MBuf* chain = pool.GetHeaderAligned(14);
    memcpy(chain->data, frame, 14);
    net::MBuf* body = pool.FromData(frame + 14, sizeof(frame) - 14);
    chain->next = body;
    chain->pkt_len = sizeof(frame);
    auto io = net::MbufBufIo::Wrap(&pool, chain);
    ASSERT_EQ(Error::kOk, tx_a_owned->Push(io.get(), sizeof(frame)));
  }
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);
  ASSERT_EQ(3u, rx_b->frames.size());
  EXPECT_EQ(0, memcmp(rx_b->frames[2].data(), frame, sizeof(frame)));
  EXPECT_EQ(1u, dev_a->counters().copied);
  EXPECT_EQ(sizeof(frame), dev_a->counters().copied_bytes);

  ASSERT_EQ(Error::kOk, ea->Close());
  ASSERT_EQ(Error::kOk, eb->Close());
}

TEST_F(DriverTest, LinuxEtherPassesItsOwnSkbuffStraightThrough) {
  // §4.7.3: a received skbuff pushed back into a send NetIo is recognised
  // by its implementation identity (kSkBuffIoImplIid) and handed to the
  // driver in place: not counted as foreign data mapped, no gather, no
  // copy.
  machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 1}}, 11);
  machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 2}}, 12);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk,
            linuxdev::InitLinuxEthernet(fdev_, machine_.get(), &registry));
  auto devices = registry.LookupByInterface(EtherDev::kIid);
  ASSERT_EQ(2u, devices.size());
  auto* dev_b = static_cast<linuxdev::LinuxEtherDev*>(devices[1].get());

  ComPtr<RecorderNetIo> rx_a(new RecorderNetIo());
  ComPtr<RecorderNetIo> rx_b(new RecorderNetIo());
  rx_b->keep = true;  // b sends its received skbuff back
  NetIo* tx_a = nullptr;
  NetIo* tx_b = nullptr;
  ComPtr<EtherDev> ea = ComPtr<EtherDev>::FromQuery(devices[0].get());
  ComPtr<EtherDev> eb = ComPtr<EtherDev>::FromQuery(devices[1].get());
  ASSERT_EQ(Error::kOk, ea->Open(rx_a.get(), &tx_a));
  ASSERT_EQ(Error::kOk, eb->Open(rx_b.get(), &tx_b));
  ComPtr<NetIo> tx_a_owned(tx_a);
  ComPtr<NetIo> tx_b_owned(tx_b);

  // A broadcast frame, so that b can send it back to a unchanged.
  uint8_t frame[80] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 1,
                       0x08, 0x00};
  for (size_t i = 14; i < sizeof(frame); ++i) {
    frame[i] = static_cast<uint8_t>(i * 7);
  }
  auto contiguous = MemBlkIo::CreateFrom(frame, sizeof(frame));
  ASSERT_EQ(Error::kOk, tx_a_owned->Push(contiguous.get(), sizeof(frame)));
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);
  ASSERT_EQ(1u, rx_b->kept.size());

  ASSERT_EQ(Error::kOk, tx_b_owned->Push(rx_b->kept[0].get(), sizeof(frame)));
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);
  const auto& c = dev_b->counters();
  EXPECT_EQ(1u, c.native_passthrough);
  EXPECT_EQ(0u, c.fake_skbuff);
  EXPECT_EQ(0u, c.sg_frames);
  EXPECT_EQ(0u, c.copied);
  EXPECT_EQ(0u, c.copied_bytes);
  ASSERT_EQ(1u, rx_a->frames.size());
  EXPECT_EQ(0, memcmp(rx_a->frames[0].data(), frame, sizeof(frame)));

  // The received skbuff is still b's, intact, after the driver consumed the
  // passthrough, and a push sends exactly the `size` bytes it names.
  uint8_t again[sizeof(frame)];
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, rx_b->kept[0]->Read(again, 0, sizeof(again), &actual));
  EXPECT_EQ(sizeof(frame), actual);
  EXPECT_EQ(0, memcmp(again, frame, sizeof(frame)));
  ASSERT_EQ(Error::kOk, tx_b_owned->Push(rx_b->kept[0].get(), 40));
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);
  EXPECT_EQ(2u, c.native_passthrough);
  ASSERT_EQ(2u, rx_a->frames.size());
  ASSERT_EQ(40u, rx_a->frames[1].size());
  EXPECT_EQ(0, memcmp(rx_a->frames[1].data(), frame, 40));
  rx_b->kept.clear();

  ASSERT_EQ(Error::kOk, ea->Close());
  ASSERT_EQ(Error::kOk, eb->Close());
}

TEST_F(DriverTest, DeviceRegistryFindsByNameAndInterface) {
  machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 1}}, 11);
  machine_->AddDisk(256);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk,
            linuxdev::InitLinuxEthernet(fdev_, machine_.get(), &registry));
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  ASSERT_EQ(Error::kOk,
            freebsddev::InitFreeBsdChar(fdev_, machine_.get(), &registry));
  EXPECT_EQ(4u, registry.count());  // eth0, hda, console, sio0

  EXPECT_EQ(1u, registry.LookupByInterface(EtherDev::kIid).size());
  EXPECT_EQ(1u, registry.LookupByInterface(BlkIo::kIid).size());
  EXPECT_EQ(2u, registry.LookupByInterface(CharStream::kIid).size());

  auto hda = registry.LookupByName("hda");
  ASSERT_TRUE(hda);
  DeviceInfo info;
  ASSERT_EQ(Error::kOk, hda->GetInfo(&info));
  EXPECT_STREQ("linux", info.vendor);
  auto console = registry.LookupByName("console");
  ASSERT_TRUE(console);
  ASSERT_EQ(Error::kOk, console->GetInfo(&info));
  EXPECT_STREQ("freebsd", info.vendor);  // both donors coexist (§3.6)
}

TEST_F(DriverTest, IdeDriverReadsAndWritesThroughBlkIo) {
  DiskHw* disk = machine_->AddDisk(2048);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ASSERT_TRUE(device);
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());
  ASSERT_TRUE(blkio);
  EXPECT_EQ(512u, blkio->GetBlockSize());
  off_t64 size = 0;
  ASSERT_EQ(Error::kOk, blkio->GetSize(&size));
  EXPECT_EQ(2048u * 512, size);

  bool done = false;
  sim_.Spawn("io", [&] {
    // Unaligned write crossing sectors (exercises read-modify-write).
    uint8_t data[1500];
    for (size_t i = 0; i < sizeof(data); ++i) {
      data[i] = static_cast<uint8_t>(i * 11);
    }
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, blkio->Write(data, 100, sizeof(data), &actual));
    EXPECT_EQ(sizeof(data), actual);

    uint8_t readback[1500] = {};
    ASSERT_EQ(Error::kOk, blkio->Read(readback, 100, sizeof(readback), &actual));
    EXPECT_EQ(sizeof(readback), actual);
    EXPECT_EQ(0, memcmp(data, readback, sizeof(data)));
    done = true;
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(done);
  EXPECT_GT(disk->reads_completed() + disk->writes_completed(), 4u);
}

TEST_F(DriverTest, FilesystemRunsOnTheIdeDriver) {
  // §4.2.2's dynamic binding, end to end: mkfs + mount the filesystem
  // component on the encapsulated IDE driver's BlkIo.
  machine_->AddDisk(16 * 1024 * 1024 / 512);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());
  ASSERT_TRUE(blkio);

  sim_.Spawn("fs", [&] {
    ASSERT_EQ(Error::kOk, fs::Mkfs(blkio.get()));
    FileSystem* raw = nullptr;
    ASSERT_EQ(Error::kOk, fs::Offs::Mount(blkio.get(), {.trace = &kernel_->trace()}, &raw));
    ComPtr<FileSystem> fs(raw);
    ComPtr<Dir> root;
    ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
    ComPtr<File> f;
    ASSERT_EQ(Error::kOk, root->Create("on-disk", 0644, f.Receive()));
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, f->Write("through the driver", 0, 18, &actual));
    f.Reset();
    root.Reset();
    ASSERT_EQ(Error::kOk, fs->Unmount());
    fs::FsckReport report = fs::Fsck(blkio.get());
    EXPECT_TRUE(report.consistent);
    EXPECT_TRUE(report.was_clean);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
}

TEST_F(DriverTest, IdeDriverFlushesThroughBlkIoBarrier) {
  // The §4.4.2 extension discovered the COM way: Query the IDE device for
  // BlkIoBarrier and drain the disk's volatile write cache through it.
  DiskHw* disk = machine_->AddDisk(2048);
  disk->EnableWriteCache(true);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ASSERT_TRUE(device);
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());
  ComPtr<BlkIoBarrier> barrier = ComPtr<BlkIoBarrier>::FromQuery(device.get());
  ASSERT_TRUE(blkio);
  ASSERT_TRUE(barrier);

  sim_.Spawn("flush", [&] {
    uint8_t data[512];
    for (size_t i = 0; i < sizeof(data); ++i) {
      data[i] = static_cast<uint8_t>(i);
    }
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, blkio->Write(data, 512, sizeof(data), &actual));
    EXPECT_GT(disk->cached_writes(), 0u);
    ASSERT_EQ(Error::kOk, barrier->Flush());
    EXPECT_EQ(0u, disk->cached_writes());
    EXPECT_EQ(1u, disk->flushes_completed());
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
}

TEST_F(DriverTest, BlockCacheSyncWritesBlocksInAscendingOrder) {
  // Regression pin for the crash campaign's reproducibility: Sync must
  // write back in ascending block order, never hash-map iteration order.
  // The disk's write log is the ground truth.
  DiskHw* disk = machine_->AddDisk(2048);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());
  ASSERT_TRUE(blkio);

  sim_.Spawn("sync-order", [&] {
    fs::BlockCache cache(blkio, fs::kBlockSize, 64, &kernel_->trace());
    for (uint32_t b : {50u, 3u, 27u, 9u, 40u, 12u}) {
      ASSERT_EQ(Error::kOk, cache.ZeroBlock(b));
    }
    disk->ClearWriteLog();
    ASSERT_EQ(Error::kOk, cache.Sync());
    const auto& log = disk->write_log();
    ASSERT_GE(log.size(), 6u);
    for (size_t i = 1; i < log.size(); ++i) {
      EXPECT_LE(log[i - 1].lba, log[i].lba)
          << "write " << i << " went backwards";
    }
    // First and last writebacks belong to the lowest and highest blocks.
    EXPECT_EQ(3u * (fs::kBlockSize / 512), log.front().lba);
    EXPECT_EQ(50u * (fs::kBlockSize / 512),
              log.back().lba + log.back().sectors - fs::kBlockSize / 512);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
}

TEST_F(DriverTest, BsdTtyBlocksUntilInput) {
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk,
            freebsddev::InitFreeBsdChar(fdev_, machine_.get(), &registry));
  auto console = registry.LookupByName("console");
  ComPtr<CharStream> tty = ComPtr<CharStream>::FromQuery(console.get());
  ASSERT_TRUE(tty);

  std::string received;
  sim_.Spawn("reader", [&] {
    char buf[32];
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, tty->Read(buf, sizeof(buf), &actual));
    received.assign(buf, actual);
  });
  // Input arrives later; the reader must be blocked until then.
  sim_.clock().ScheduleAfter(kNsPerMs, [&] {
    machine_->console_uart().InjectRx("typed", 5);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_EQ("typed", received);

  // Output goes straight to the UART.
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, tty->Write("echo", 4, &actual));
  EXPECT_EQ("echo", machine_->console_uart().TakeOutput());
}

// ---- Buffer-I/O bounds: the unsigned-off_t64 abuse suite ----
//
// off_t64 is unsigned, so a "negative" offset arrives as a huge value and
// the historical `offset + amount > len` checks wrapped right back into
// range, letting a COM client drive memcpy out of bounds.  These tests poke
// the COM BufIo surface directly with the abusive values; against the
// pre-fix code the SkBuffIo cases die under ASan (wild memcpy), and they
// pin the overflow-safe checks for all three implementations.

TEST_F(DriverTest, SkBuffIoBoundsRejectNegativeOffsetAndWrappingAmount) {
  linuxdev::LinuxKernelEnv kenv = SkbEnv();

  constexpr size_t kLen = 96;
  linuxdev::sk_buff* skb = linuxdev::dev_alloc_skb(kenv, kLen + 16);
  ASSERT_NE(nullptr, skb);
  uint8_t* put = linuxdev::skb_put(skb, kLen);
  for (size_t i = 0; i < kLen; ++i) {
    put[i] = static_cast<uint8_t>(i ^ 0x5c);
  }
  ComPtr<linuxdev::SkBuffIo> impl(new linuxdev::SkBuffIo(kenv, skb));
  ComPtr<BufIo> io = ComPtr<BufIo>::FromQuery(impl.get());
  ASSERT_TRUE(io);

  uint8_t buf[kLen] = {};
  size_t actual = 99;

  // Read at offset -8: pre-fix, `offset + amount` wrapped to 8 and the
  // memcpy sourced from skb->data - 8 rows of someone else's heap.
  EXPECT_EQ(Error::kOutOfRange,
            io->Read(buf, static_cast<off_t64>(-8), 16, &actual));
  EXPECT_EQ(0u, actual);

  // Amount that wraps: offset in range, offset + amount == 4 (mod 2^64).
  actual = 99;
  EXPECT_EQ(Error::kInval,
            io->Write(buf, 8, static_cast<size_t>(-4), &actual));
  EXPECT_EQ(0u, actual);
  void* addr = nullptr;
  EXPECT_EQ(Error::kInval, io->Map(&addr, 8, static_cast<size_t>(-4)));
  EXPECT_EQ(Error::kOutOfRange,
            io->Map(&addr, static_cast<off_t64>(-8), 4));

  // Read and Write clamp to the tail (BlkIo short-transfer semantics); a
  // Map window may not run past it.
  ASSERT_EQ(Error::kOk, io->Read(buf, kLen - 4, 8, &actual));
  EXPECT_EQ(4u, actual);
  ASSERT_EQ(Error::kOk, io->Write(buf, kLen - 4, 8, &actual));
  EXPECT_EQ(4u, actual);
  EXPECT_EQ(Error::kOutOfRange, io->Map(&addr, kLen - 4, 8));

  // The valid surface still works exactly.
  ASSERT_EQ(Error::kOk, io->Read(buf, 0, kLen, &actual));
  ASSERT_EQ(kLen, actual);
  EXPECT_EQ(0, memcmp(buf, put, kLen));
  ASSERT_EQ(Error::kOk, io->Map(&addr, kLen - 4, 4));
  EXPECT_EQ(put + kLen - 4, addr);
}

TEST_F(DriverTest, BufIoBoundsAbuseSuiteAcrossImplementations) {
  // One parameterized sweep over every BufIo the boundary glue hands out:
  // SkBuffIo (received skbuff), MemBlkIo (memory object), MbufBufIo (mbuf
  // chain).  Each backs 64 identical pattern bytes and runs the strict
  // suites every storage surface runs (tests/bounds_abuse.h).
  linuxdev::LinuxKernelEnv kenv = SkbEnv();

  constexpr size_t kLen = 64;
  uint8_t pattern[kLen];
  for (size_t i = 0; i < kLen; ++i) {
    pattern[i] = static_cast<uint8_t>(i * 3 + 1);
  }

  net::MbufPool pool;
  struct Target {
    const char* name;
    ComPtr<BufIo> io;
  };
  std::vector<Target> targets;

  targets.push_back(
      {"MemBlkIo",
       ComPtr<BufIo>::FromQuery(MemBlkIo::CreateFrom(pattern, kLen).get())});

  linuxdev::sk_buff* skb = linuxdev::dev_alloc_skb(kenv, kLen + 16);
  ASSERT_NE(nullptr, skb);
  memcpy(linuxdev::skb_put(skb, kLen), pattern, kLen);
  ComPtr<linuxdev::SkBuffIo> skio(new linuxdev::SkBuffIo(kenv, skb));
  targets.push_back({"SkBuffIo", ComPtr<BufIo>::FromQuery(skio.get())});
  // The optional methods' interface defaults: fixed size, nothing to wire.
  EXPECT_EQ(Error::kNotImpl, skio->SetSize(kLen / 2));
  EXPECT_EQ(Error::kOk, skio->Wire());
  EXPECT_EQ(Error::kOk, skio->Unwire());

  {
    // A 3-mbuf chain (header + two payload pieces) so the offset walk and
    // per-mbuf Map contiguity limits are exercised too.
    net::MBuf* chain = pool.GetHeaderAligned(14);
    memcpy(chain->data, pattern, 14);
    net::MBuf* body1 = pool.FromData(pattern + 14, 25);
    net::MBuf* body2 = pool.FromData(pattern + 39, kLen - 39);
    chain->next = body1;
    body1->next = body2;
    body1->pkt_len = 0;
    body2->pkt_len = 0;
    chain->pkt_len = kLen;
    targets.push_back(
        {"MbufBufIo",
         ComPtr<BufIo>::FromQuery(net::MbufBufIo::Wrap(&pool, chain).get())});
  }

  const off_t64 kHugeOffsets[] = {
      static_cast<off_t64>(-1), static_cast<off_t64>(-8),
      static_cast<off_t64>(-static_cast<int64_t>(kLen)), kLen + 1,
      static_cast<off_t64>(1) << 62};

  for (Target& t : targets) {
    SCOPED_TRACE(t.name);
    BufIo* io = t.io.get();
    off_t64 size = 0;
    ASSERT_EQ(Error::kOk, io->GetSize(&size));
    ASSERT_EQ(kLen, size);

    uint8_t buf[kLen + 32];
    size_t actual = 0;

    // Baseline round trip.
    ASSERT_EQ(Error::kOk, io->Read(buf, 0, kLen, &actual));
    ASSERT_EQ(kLen, actual);
    EXPECT_EQ(0, memcmp(buf, pattern, kLen));

    // Every huge/"negative" offset is rejected outright, for every verb.
    for (off_t64 off : kHugeOffsets) {
      SCOPED_TRACE(static_cast<long long>(off));
      actual = 99;
      EXPECT_NE(Error::kOk, io->Read(buf, off, 8, &actual));
      EXPECT_EQ(0u, actual);
      actual = 99;
      EXPECT_NE(Error::kOk, io->Write(pattern, off, 8, &actual));
      EXPECT_EQ(0u, actual);
      void* addr = nullptr;
      EXPECT_NE(Error::kOk, io->Map(&addr, off, 8));
    }

    testing::AbuseReadBounds(io, kLen);
    testing::AbuseWriteBounds(io, kLen);
    testing::AbuseMapBounds(testing::MapWindow(io), kLen);
    if (auto vec = ComPtr<BufIoVec>::FromQuery(io)) {
      testing::AbuseMapBounds(testing::VectorsWindow(vec.get()), kLen);
    }

    // The empty tail is addressable; one past it is not.
    EXPECT_EQ(Error::kOk, io->Read(buf, kLen, 8, &actual));
    EXPECT_EQ(0u, actual);
    EXPECT_NE(Error::kOk, io->Read(buf, kLen + 1, 1, &actual));

    // A small in-range Map still works and sees the right bytes.
    void* addr = nullptr;
    ASSERT_EQ(Error::kOk, io->Map(&addr, 2, 4));
    EXPECT_EQ(0, memcmp(addr, pattern + 2, 4));
    EXPECT_EQ(Error::kOk, io->Unmap(addr, 2, 4));
  }
}

// ---- Polled RX (NAPI-style): budgeted drain and the re-enable race ----

TEST_F(DriverTest, PolledRxDrainsBurstBeyondBudget) {
  // A burst larger than the poll budget must be delivered completely by
  // chained poll dispatches (budget-exhausted reschedules), with exactly
  // one coalesced IRQ and no watchdog help.
  NicHw* nic_a = machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 1}}, 11);
  NicHw* nic_b = machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 2}}, 12);

  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk,
            linuxdev::InitLinuxEthernet(fdev_, machine_.get(), &registry));
  auto devices = registry.LookupByInterface(EtherDev::kIid);
  ASSERT_EQ(2u, devices.size());
  auto* dev_a = static_cast<linuxdev::LinuxEtherDev*>(devices[0].get());

  NicHw::RxMitigation mit;
  mit.frame_threshold = 4;
  nic_a->SetRxMitigation(mit);
  dev_a->EnableRxPoll();

  ComPtr<RecorderNetIo> rx_a(new RecorderNetIo());
  NetIo* tx_a = nullptr;
  ComPtr<EtherDev> ea = ComPtr<EtherDev>::FromQuery(devices[0].get());
  ASSERT_EQ(Error::kOk, ea->Open(rx_a.get(), &tx_a));
  ComPtr<NetIo> tx_a_owned(tx_a);

  uint8_t frame[60] = {2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2};
  const uint8_t* chunk = frame;
  size_t len = sizeof(frame);
  // 3 full budgets + a 3-frame remainder, inside the 64-slot RX ring.
  constexpr int kBudget = linuxdev::LinuxEtherDev::kRxPollBudget;
  constexpr int kBurst = 3 * kBudget + 3;
  static_assert(kBurst <= static_cast<int>(NicHw::kRxRingCapacity));
  for (int i = 0; i < kBurst; ++i) {
    frame[12] = static_cast<uint8_t>(i);  // distinguishable payloads
    nic_b->TxStart(&chunk, &len, 1);
  }
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);

  ASSERT_EQ(static_cast<size_t>(kBurst), rx_a->frames.size());
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(i), rx_a->frames[i][12]) << "frame order";
  }
  const auto& c = dev_a->counters();
  EXPECT_EQ(4u, static_cast<uint64_t>(c.rx_polls));
  EXPECT_EQ(static_cast<uint64_t>(kBurst),
            static_cast<uint64_t>(c.rx_poll_frames));
  EXPECT_EQ(3u, static_cast<uint64_t>(c.rx_poll_budget_exhausted));
  EXPECT_EQ(0u, static_cast<uint64_t>(c.rx_watchdog_recoveries))
      << "the poll chain, not the watchdog, must deliver the burst";
  EXPECT_EQ(1u, static_cast<uint64_t>(nic_a->rx_coalesce_irqs_counter()))
      << "one coalesced announcement for the whole burst";
  ASSERT_EQ(Error::kOk, ea->Close());
}

TEST_F(DriverTest, PolledRxRechecksRingAfterReenable) {
  // The classic NAPI race: a frame lands after the poll drained the ring
  // but before the RX interrupt is re-enabled.  The hardware does not
  // replay it, so the driver's post-re-enable re-check is the only thing
  // standing between that frame and a 10 ms watchdog stall.
  NicHw* nic_a = machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 1}}, 11);
  NicHw* nic_b = machine_->AddNic(wire_.get(), EtherAddr{{2, 0, 0, 0, 0, 2}}, 12);

  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk,
            linuxdev::InitLinuxEthernet(fdev_, machine_.get(), &registry));
  auto devices = registry.LookupByInterface(EtherDev::kIid);
  ASSERT_EQ(2u, devices.size());
  auto* dev_a = static_cast<linuxdev::LinuxEtherDev*>(devices[0].get());

  // IRQ at t, poll at t+2us, re-enable at t+4us.
  using Dev = linuxdev::LinuxEtherDev;
  dev_a->EnableRxPoll();

  ComPtr<RecorderNetIo> rx_a(new RecorderNetIo());
  NetIo* tx_a = nullptr;
  ComPtr<EtherDev> ea = ComPtr<EtherDev>::FromQuery(devices[0].get());
  ASSERT_EQ(Error::kOk, ea->Open(rx_a.get(), &tx_a));
  ComPtr<NetIo> tx_a_owned(tx_a);

  uint8_t frame[60] = {2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2};
  const uint8_t* chunk = frame;
  size_t len = sizeof(frame);
  frame[12] = 1;
  nic_b->TxStart(&chunk, &len, 1);
  // Lands at t+3us: after the poll dispatch drained frame 1, before the
  // re-enable at t+4us — squarely in the race window, raising no IRQ.
  sim_.clock().ScheduleAfter(Dev::kRxSoftirqDelayNs + Dev::kRxReenableDelayNs / 2, [&] {
    frame[12] = 2;
    nic_b->TxStart(&chunk, &len, 1);
  });
  sim_.clock().RunUntil(sim_.clock().Now() + kNsPerMs);

  ASSERT_EQ(2u, rx_a->frames.size()) << "the race-window frame was stranded";
  EXPECT_EQ(1, rx_a->frames[0][12]);
  EXPECT_EQ(2, rx_a->frames[1][12]);
  const auto& c = dev_a->counters();
  EXPECT_EQ(1u, static_cast<uint64_t>(c.rx_poll_reenable_races))
      << "the re-check, not an IRQ, must have found the frame";
  EXPECT_EQ(2u, static_cast<uint64_t>(c.rx_polls));
  EXPECT_EQ(0u, static_cast<uint64_t>(c.rx_watchdog_recoveries));
  EXPECT_EQ(1u, static_cast<uint64_t>(nic_a->rx_coalesce_irqs_counter()))
      << "the hardware never announced the race-window frame";
  ASSERT_EQ(Error::kOk, ea->Close());
}

TEST_F(DriverTest, ClistQueuesArbitraryBytes) {
  freebsddev::Clist clist(fdev_);
  EXPECT_EQ(-1, clist.Getc());
  for (int i = 0; i < 300; ++i) {  // spans multiple cblocks
    ASSERT_TRUE(clist.Putc(static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(300u, clist.count());
  EXPECT_GE(clist.cblocks_allocated(), 4u);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(i & 0xff, clist.Getc());
  }
  EXPECT_EQ(-1, clist.Getc());
}

// ---- NIC RX buffers: the BSD graft, their lifetime, and giant frames ----

using testbed::Host;
using testbed::NetConfig;
using testbed::World;

NicHw& NicOf(Host& host) { return *host.machine->nics()[0]; }

// Streams `total` bytes from host 1 to host 0.  The receiver reads them all
// and calls `progress` with the running count after every read.
void StreamToHost0(World& world, size_t total,
                   const std::function<void(size_t)>& progress) {
  constexpr uint16_t kPort = 5001;
  Host& receiver = world.host(0);
  Host& sender = world.host(1);
  world.sim().Spawn("receiver", [&] {
    ComPtr<Socket> listener = receiver.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    std::vector<uint8_t> buf(8192);
    size_t got = 0;
    for (;;) {
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Recv(buf.data(), buf.size(), &n));
      if (n == 0) {
        break;  // EOF
      }
      got += n;
      progress(got);
    }
    EXPECT_EQ(total, got);
  });
  world.sim().Spawn("sender", [&] {
    ComPtr<Socket> conn = sender.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{receiver.addr, kPort}));
    std::vector<uint8_t> buf(4096, 0x5a);
    for (size_t sent = 0; sent < total; sent += buf.size()) {
      size_t actual = 0;
      ASSERT_EQ(Error::kOk, conn->Send(buf.data(), buf.size(), &actual));
      ASSERT_EQ(buf.size(), actual);
    }
  });
  world.RunToCompletion();
}

TEST(RxBufferTest, WarmBsdOskitTransferAllocatesNothingPerFrame) {
  // Both ways round: data frames take the BSD graft one way and the Linux
  // glue's wrappers the other, and the ACKs take the other path.
  for (auto [rx, tx] : {std::pair{NetConfig::kNativeBsd, NetConfig::kOskit},
                        std::pair{NetConfig::kOskit, NetConfig::kNativeBsd}}) {
    World world;
    world.AddHost("rx", rx);
    world.AddHost("tx", tx);
    struct Mark {
      size_t news;
      uint64_t frames;
    };
    auto mark = [&] {
      return Mark{GlobalNewCalls(), NicOf(world.host(0)).rx_frames() +
                                        NicOf(world.host(1)).rx_frames()};
    };
    constexpr size_t kWarm = 256 * 1024;
    constexpr size_t kMeasured = 1024 * 1024;
    std::optional<Mark> warm, end;
    StreamToHost0(world, kWarm + kMeasured + kWarm, [&](size_t got) {
      if (got >= kWarm && !warm) {
        warm = mark();
      }
      if (got >= kWarm + kMeasured && !end) {
        end = mark();
      }
    });
    ASSERT_TRUE(end.has_value());
    EXPECT_GT(end->frames - warm->frames, 700u);
    EXPECT_EQ(warm->news, end->news)
        << "operator new calls over " << end->frames - warm->frames << " frames";
  }
}

TEST(RxBufferTest, WorldTornDownWithGraftedFramesUnreadReturnsEveryBuffer) {
  const size_t before = NicHw::rx_buffers_outstanding();
  {
    World world;
    world.AddHost("rx", NetConfig::kNativeBsd);
    world.AddHost("tx", NetConfig::kOskit);
    constexpr uint16_t kPort = 5002;
    world.sim().Spawn("receiver", [&] {
      ComPtr<Socket> listener = world.host(0).MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
      ASSERT_EQ(Error::kOk, listener->Listen(1));
      SockAddr peer;
      ComPtr<Socket> conn;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
      // Let the data land, then close without reading: the connection
      // lingers in the stack with its receive buffer full of grafts.
      world.sim().SleepFor(kNsPerSec);
    });
    world.sim().Spawn("sender", [&] {
      ComPtr<Socket> conn = world.host(1).MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{world.host(0).addr, kPort}));
      std::vector<uint8_t> buf(16 * 1024, 0x5a);
      size_t actual = 0;
      ASSERT_EQ(Error::kOk, conn->Send(buf.data(), buf.size(), &actual));
      ASSERT_EQ(buf.size(), actual);
    });
    world.RunToCompletion();
    EXPECT_GE(NicHw::rx_buffers_outstanding() - before, 11u)
        << "16 KiB of segments grafted and queued";
  }
  EXPECT_EQ(before, NicHw::rx_buffers_outstanding());
}

TEST(RxBufferTest, CorruptFrameGraftedOnBsdHostIsDroppedAndItsBufferReturns) {
  fault::FaultEnv fenv(3);  // outlives the world whose NIC it is bound to
  fault::FaultSpec once;
  once.nth_call = 8;  // a full-size data segment of the stream
  fenv.Arm("nic.rx.corrupt", once);
  World world;
  Host& rx = world.AddHost("rx", NetConfig::kNativeBsd);
  world.AddHost("tx", NetConfig::kOskit);
  NicOf(rx).SetFaultEnv(&fenv);
  const size_t before = NicHw::rx_buffers_outstanding();
  StreamToHost0(world, 64 * 1024, [](size_t) {});
  EXPECT_EQ(1u, NicOf(rx).rx_corrupted());
  EXPECT_EQ(1u, static_cast<uint64_t>(rx.stack->counters().tcp_bad_checksum));
  EXPECT_EQ(0u, static_cast<uint64_t>(rx.stack->counters().ip_bad_checksum));
  // Everything was read: every buffer, the corrupt one too, is back.
  EXPECT_EQ(before, NicHw::rx_buffers_outstanding());
}

TEST(RxBufferTest, GiantFramesAreCountedAtTheNicAndNeverReachADriver) {
  World world;
  Host& bsd = world.AddHost("bsd", NetConfig::kNativeBsd);
  Host& glue = world.AddHost("glue", NetConfig::kOskit);
  for (Host* host : {&bsd, &glue}) {
    NicHw& nic = NicOf(*host);
    for (size_t len : {kEtherMaxFrame + 1, size_t{3000}}) {
      // Addressed to the station, as an attached endpoint may hand it.
      std::vector<uint8_t> frame(len, 0x45);
      std::memcpy(frame.data(), nic.mac().bytes, kEtherAddrSize);
      nic.FrameArrived(frame.data(), frame.size());
    }
    EXPECT_EQ(2u, nic.rx_oversize());
    EXPECT_EQ(0u, nic.rx_frames());
    EXPECT_FALSE(nic.RxPending());
  }
  world.RunToCompletion();
  EXPECT_EQ(0u, bsd.bsd_driver->rx_frames());
  EXPECT_EQ(0u, glue.ether_dev->device_stats().rx_packets);
}

}  // namespace
}  // namespace oskit
