// Async completion-ring and stackable blkio-layer tests: the BlkIoRing
// contract (sync-over-async adapter and the IDE glue's native ring with
// LBA-sorted adjacent-run merging), RAID0 striping, the per-block checksum
// layer, the block cache as a stackable layer with GetRef pinning, and
// barrier propagation through arbitrary compositions down to every DiskHw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/aio/stack.h"
#include "src/com/memblkio.h"
#include "src/dev/linux/linux_glue.h"
#include "src/dev/linux/linux_ide.h"
#include "src/diskpart/diskpart.h"
#include "src/fs/cache.h"
#include "src/kern/kmon.h"
#include "tests/bounds_abuse.h"

namespace oskit {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t salt = 0) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(i * 31 + salt);
  }
  return v;
}

ComPtr<BlkIo> AsBlkIo(const ComPtr<MemBlkIo>& io) {
  return ComPtr<BlkIo>::FromQuery(io.get());
}

// ---- Sync-over-async adapter ----

TEST(SyncRingAdapterTest, ExecutesSqesAndPreservesTags) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(64 * 1024, 512);
  auto ring = aio::SyncRingAdapter::Wrap(mem.get(), &tenv);

  auto a = Pattern(512, 1);
  auto b = Pattern(512, 2);
  std::vector<uint8_t> readback(512);
  AioSqe sqes[4] = {
      {AioOp::kWrite, a.data(), 0, a.size(), 11},
      {AioOp::kWrite, b.data(), 512, b.size(), 22},
      {AioOp::kRead, readback.data(), 0, readback.size(), 33},
      {AioOp::kFlush, nullptr, 0, 0, 44},
  };
  size_t accepted = 0;
  ASSERT_EQ(Error::kOk, ring->Submit(sqes, 4, &accepted));
  EXPECT_EQ(4u, accepted);
  EXPECT_EQ(4u, ring->Occupancy());

  AioCqe cqes[8];
  size_t count = 0;
  ASSERT_EQ(Error::kOk, ring->Reap(cqes, 8, &count));
  ASSERT_EQ(4u, count);
  EXPECT_EQ(0u, ring->Occupancy());
  uint64_t tags[4] = {11, 22, 33, 44};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tags[i], cqes[i].tag);
    EXPECT_EQ(Error::kOk, cqes[i].status);
  }
  EXPECT_EQ(512u, cqes[2].actual);
  // The read SQE ran after the write SQE it depends on (submission order).
  EXPECT_EQ(a, readback);
}

TEST(SyncRingAdapterTest, BackpressuresAtRingDepth) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(64 * 1024, 512);
  auto ring = aio::SyncRingAdapter::Wrap(mem.get(), &tenv);

  uint8_t buf[16];
  std::vector<AioSqe> sqes(aio::SyncRingAdapter::kRingDepth + 10,
                           AioSqe{AioOp::kRead, buf, 0, sizeof(buf), 7});
  size_t accepted = 0;
  ASSERT_EQ(Error::kOk, ring->Submit(sqes.data(), sqes.size(), &accepted));
  EXPECT_EQ(aio::SyncRingAdapter::kRingDepth, accepted);
  EXPECT_EQ(Error::kOk, ring->Submit(sqes.data(), 1, &accepted));
  EXPECT_EQ(0u, accepted);  // full until reaped

  AioCqe cqes[40];
  size_t count = 0;
  ASSERT_EQ(Error::kOk, ring->Reap(cqes, 40, &count));
  EXPECT_EQ(40u, count);
  ASSERT_EQ(Error::kOk, ring->Reap(cqes, 40, &count));
  EXPECT_EQ(aio::SyncRingAdapter::kRingDepth - 40, count);
  ASSERT_EQ(Error::kOk, ring->Submit(sqes.data(), 1, &accepted));
  EXPECT_EQ(1u, accepted);
}

TEST(SyncRingAdapterTest, PerSqeFailuresLandInCqeStatus) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(8 * 1024, 512);
  auto ring = aio::SyncRingAdapter::Wrap(mem.get(), &tenv);

  uint8_t buf[16];
  AioSqe sqes[2] = {
      {AioOp::kRead, buf, 1, ~size_t{0}, 1},          // wraps -> kInval
      {AioOp::kRead, buf, ~uint64_t{0} - 7, 16, 2},   // huge offset
  };
  size_t accepted = 0;
  ASSERT_EQ(Error::kOk, ring->Submit(sqes, 2, &accepted));
  ASSERT_EQ(2u, accepted);
  AioCqe cqes[2];
  size_t count = 0;
  ASSERT_EQ(Error::kOk, ring->Reap(cqes, 2, &count));
  ASSERT_EQ(2u, count);
  EXPECT_EQ(Error::kInval, cqes[0].status);
  EXPECT_EQ(0u, cqes[0].actual);
  EXPECT_EQ(Error::kOutOfRange, cqes[1].status);
}

// ---- Striping layer ----

TEST(StripeBlkIoTest, GeometryAndInterleave) {
  trace::TraceEnv tenv;
  std::vector<ComPtr<BlkIo>> children;
  for (int i = 0; i < 3; ++i) {
    children.push_back(AsBlkIo(MemBlkIo::Create(8 * 1024, 512)));
  }
  std::vector<BlkIo*> raw = {children[0].get(), children[1].get(),
                             children[2].get()};
  auto stripe = aio::StripeBlkIo::Create(std::move(children), 1024, &tenv);

  off_t64 size = 0;
  ASSERT_EQ(Error::kOk, stripe->GetSize(&size));
  EXPECT_EQ(3u * 8 * 1024, size);
  EXPECT_EQ(512u, stripe->GetBlockSize());

  auto data = Pattern(static_cast<size_t>(size));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, stripe->Write(data.data(), 0, data.size(), &actual));
  ASSERT_EQ(data.size(), actual);

  // RAID0 address map: unit u lives on child u % 3 at unit u / 3.
  std::vector<uint8_t> unit(1024);
  for (uint32_t u = 0; u < size / 1024; ++u) {
    BlkIo* child = raw[u % 3];
    ASSERT_EQ(Error::kOk,
              child->Read(unit.data(), (u / 3) * 1024, unit.size(), &actual));
    ASSERT_EQ(unit.size(), actual);
    EXPECT_EQ(0, memcmp(unit.data(), data.data() + u * 1024, unit.size()))
        << "unit " << u;
  }

  // Unaligned read crossing a unit boundary reassembles correctly.
  std::vector<uint8_t> cross(300);
  ASSERT_EQ(Error::kOk, stripe->Read(cross.data(), 900, cross.size(), &actual));
  ASSERT_EQ(cross.size(), actual);
  EXPECT_EQ(0, memcmp(cross.data(), data.data() + 900, cross.size()));
}

TEST(StripeBlkIoTest, BoundsAbuse) {
  trace::TraceEnv tenv;
  std::vector<ComPtr<BlkIo>> children;
  children.push_back(AsBlkIo(MemBlkIo::Create(8 * 1024, 512)));
  children.push_back(AsBlkIo(MemBlkIo::Create(8 * 1024, 512)));
  auto stripe = aio::StripeBlkIo::Create(std::move(children), 512, &tenv);
  off_t64 size = 0;
  ASSERT_EQ(Error::kOk, stripe->GetSize(&size));
  testing::AbuseReadBounds(stripe.get(), size);
  testing::AbuseWriteBounds(stripe.get(), size);
}

// ---- Checksum layer ----

TEST(ChecksumBlkIoTest, DetectsScribbledSector) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(16 * 512, 512);
  auto sums = aio::ChecksumBlkIo::Create(mem.get(), &tenv);

  auto block = Pattern(512, 9);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, sums->Write(block.data(), 3 * 512, 512, &actual));
  EXPECT_EQ(1u, sums->tracked_granules());

  std::vector<uint8_t> readback(512);
  ASSERT_EQ(Error::kOk, sums->Read(readback.data(), 3 * 512, 512, &actual));
  EXPECT_EQ(block, readback);

  // Corrupt one byte UNDER the layer (torn sector / scribble / bit rot).
  uint8_t evil = block[7] ^ 0xFF;
  ASSERT_EQ(Error::kOk, mem->Write(&evil, 3 * 512 + 7, 1, &actual));
  EXPECT_EQ(Error::kIo, sums->Read(readback.data(), 3 * 512, 512, &actual));
  EXPECT_EQ(0u, actual);  // kIo, never the corrupt bytes
  EXPECT_EQ(1u, sums->mismatches());

  // A granule no write covered is unchecked: scribble passes through there.
  ASSERT_EQ(Error::kOk, mem->Write(&evil, 5 * 512, 1, &actual));
  EXPECT_EQ(Error::kOk, sums->Read(readback.data(), 5 * 512, 512, &actual));
}

TEST(ChecksumBlkIoTest, PartialWriteInvalidatesEdgeGranule) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(16 * 512, 512);
  auto sums = aio::ChecksumBlkIo::Create(mem.get(), &tenv);

  auto block = Pattern(512, 3);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, sums->Write(block.data(), 2 * 512, 512, &actual));
  ASSERT_EQ(1u, sums->tracked_granules());
  // A sub-granule write makes the digest unknowable without read-to-merge;
  // the entry drops back to unchecked rather than going stale.
  ASSERT_EQ(Error::kOk, sums->Write(block.data(), 2 * 512 + 100, 64, &actual));
  EXPECT_EQ(0u, sums->tracked_granules());
  std::vector<uint8_t> readback(512);
  EXPECT_EQ(Error::kOk, sums->Read(readback.data(), 2 * 512, 512, &actual));
}

// The strict Read/Write suites over a MemBlkIo, plus writes past the end:
// a refused or out-of-range request records nothing and grows no table.
TEST(ChecksumBlkIoTest, BoundsAbuse) {
  trace::TraceEnv tenv;
  constexpr uint64_t kSize = 16 * 512;
  auto mem = MemBlkIo::Create(kSize, 512);
  auto sums = aio::ChecksumBlkIo::Create(mem.get(), &tenv);
  testing::AbuseReadBounds(sums.get(), kSize);
  testing::AbuseWriteBounds(sums.get(), kSize);
  // Only the suites' one valid write, a byte at offset 0, reached the table.
  EXPECT_EQ(0u, sums->tracked_granules());
  EXPECT_EQ(1u, sums->table_granules());

  auto block = Pattern(512, 4);
  size_t actual = 99;
  // At the exact end a write is legal and moves no bytes.
  ASSERT_EQ(Error::kOk, sums->Write(block.data(), kSize, 512, &actual));
  EXPECT_EQ(0u, actual);
  EXPECT_EQ(1u, sums->table_granules());
  const std::pair<uint64_t, size_t> refused[] = {
      {kSize + 512, 512},       {kSize + 1, 1},    {~uint64_t{0} - 511, 512},
      {~uint64_t{0}, 1},        {512, ~size_t{0}}, {kSize - 1, ~size_t{0}}};
  for (auto [offset, amount] : refused) {
    Error err = sums->Write(block.data(), offset, amount, &actual);
    EXPECT_TRUE(err == Error::kOutOfRange || err == Error::kInval)
        << "offset " << offset << " amount " << amount;
    EXPECT_EQ(0u, actual);
    EXPECT_EQ(0u, sums->tracked_granules());
    EXPECT_EQ(1u, sums->table_granules()) << "offset " << offset;
  }

  // Filling the device grows the table to exactly its granule count.
  std::vector<uint8_t> whole(kSize, 0x5a);
  ASSERT_EQ(Error::kOk, sums->Write(whole.data(), 0, kSize, &actual));
  EXPECT_EQ(kSize / 512, sums->tracked_granules());
  EXPECT_EQ(kSize / 512, sums->table_granules());
  testing::AbuseReadBounds(sums.get(), kSize);
  testing::AbuseWriteBounds(sums.get(), kSize);
  EXPECT_EQ(kSize / 512, sums->table_granules());
}

// ---- The block cache as a layer ----

TEST(CacheBlkIoTest, CachesReadsAndWritesBackOnFlush) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(64 * 512, 512);
  auto cache = fs::CacheBlkIo::Create(mem.get(), 512, 16, &tenv);

  auto data = Pattern(2048, 5);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, cache->Write(data.data(), 512, data.size(), &actual));
  ASSERT_EQ(data.size(), actual);

  // Dirty data is visible through the layer but not yet below it.
  std::vector<uint8_t> below(2048);
  ASSERT_EQ(Error::kOk, mem->Read(below.data(), 512, below.size(), &actual));
  EXPECT_NE(data, below);
  std::vector<uint8_t> above(2048);
  ASSERT_EQ(Error::kOk, cache->Read(above.data(), 512, above.size(), &actual));
  EXPECT_EQ(data, above);

  ASSERT_EQ(Error::kOk, cache->Flush());
  ASSERT_EQ(Error::kOk, mem->Read(below.data(), 512, below.size(), &actual));
  EXPECT_EQ(data, below);
}

TEST(CacheBlkIoTest, BoundsAbuse) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(64 * 512, 512);
  auto cache = fs::CacheBlkIo::Create(mem.get(), 512, 16, &tenv);
  off_t64 size = 0;
  ASSERT_EQ(Error::kOk, cache->GetSize(&size));
  testing::AbuseReadBounds(cache.get(), size);
  testing::AbuseWriteBounds(cache.get(), size);
}

TEST(BlockCacheTest, GetRefPinsAgainstEviction) {
  trace::TraceEnv tenv;
  auto mem = MemBlkIo::Create(256 * 512, 512);
  auto seeded = Pattern(512, 42);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, mem->Write(seeded.data(), 0, seeded.size(), &actual));

  fs::BlockCache cache(ComPtr<BlkIo>::Retain(mem.get()), 512, /*capacity=*/8, &tenv);
  const uint8_t* pinned = nullptr;
  ASSERT_EQ(Error::kOk, cache.GetRef(0, &pinned));
  ASSERT_NE(nullptr, pinned);
  EXPECT_EQ(0, memcmp(pinned, seeded.data(), 512));

  // Thrash far past capacity: block 0 must survive (the exported pointer
  // stays valid), everything else cycles.
  uint8_t* data = nullptr;
  auto thrash = [&] {
    for (uint32_t b = 1; b < 64; ++b) {
      ASSERT_EQ(Error::kOk, cache.Get(b, &data));
    }
  };
  thrash();
  // Same storage, not a reload: a write through the cache is visible via
  // the pinned pointer, and a write-back keeps it there.
  uint64_t misses = cache.misses();
  ASSERT_EQ(Error::kOk, cache.Get(0, &data));
  EXPECT_EQ(misses, cache.misses());
  auto updated = Pattern(512, 43);
  memcpy(data, updated.data(), 512);
  cache.MarkDirty(0);
  EXPECT_EQ(0, memcmp(pinned, updated.data(), 512));
  ASSERT_EQ(Error::kOk, cache.Sync());
  thrash();
  EXPECT_EQ(0, memcmp(pinned, updated.data(), 512));

  // Unpinned, block 0 is evictable again: the next thrash pushes it out.
  cache.PutRef(0);
  thrash();
  misses = cache.misses();
  ASSERT_EQ(Error::kOk, cache.Get(0, &data));
  EXPECT_EQ(misses + 1, cache.misses());
  EXPECT_EQ(0, memcmp(data, updated.data(), 512));
}

// ---- Full compositions ----

TEST(StackCompositionTest, CacheOverChecksumOverStripeRoundTrips) {
  trace::TraceEnv tenv;
  std::vector<ComPtr<BlkIo>> children;
  std::vector<BlkIo*> raw;
  for (int i = 0; i < 2; ++i) {
    children.push_back(AsBlkIo(MemBlkIo::Create(32 * 1024, 512)));
    raw.push_back(children.back().get());
  }
  auto stripe = aio::StripeBlkIo::Create(std::move(children), 1024, &tenv);
  auto sums = aio::ChecksumBlkIo::Create(stripe.get(), &tenv);
  auto cache = fs::CacheBlkIo::Create(sums.get(), 1024, 16, &tenv);

  off_t64 size = 0;
  ASSERT_EQ(Error::kOk, cache->GetSize(&size));
  ASSERT_EQ(64u * 1024, size);

  auto data = Pattern(static_cast<size_t>(size), 17);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, cache->Write(data.data(), 0, data.size(), &actual));
  ASSERT_EQ(Error::kOk, cache->Flush());

  // Read back through a FRESH path (cold cache) to prove the bytes landed
  // below, and that the checksum layer verifies them clean.
  auto cold = fs::CacheBlkIo::Create(sums.get(), 1024, 16, &tenv);
  std::vector<uint8_t> readback(data.size());
  ASSERT_EQ(Error::kOk, cold->Read(readback.data(), 0, readback.size(), &actual));
  EXPECT_EQ(data, readback);

  // And the members really hold interleaved halves.
  std::vector<uint8_t> unit(1024);
  ASSERT_EQ(Error::kOk, raw[1]->Read(unit.data(), 0, unit.size(), &actual));
  EXPECT_EQ(0, memcmp(unit.data(), data.data() + 1024, unit.size()));
}

// ---- IDE-backed tests (simulated machine) ----

class AioIdeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>(&sim_, Machine::Config{});
    kernel_ = std::make_unique<KernelEnv>(machine_.get(), MultiBootInfo{});
    machine_->cpu().EnableInterrupts();
    fdev_ = DefaultFdevEnv(kernel_.get());
  }

  // The kernel's registry: its IDE glue reports there.
  uint64_t KernelCounter(const char* name) {
    return kernel_->trace().registry.Value(name);
  }

  Simulation sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<KernelEnv> kernel_;
  FdevEnv fdev_;
};

TEST_F(AioIdeTest, NativeRingMergesAdjacentRuns) {
  machine_->AddDisk(2048);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ASSERT_TRUE(device);
  ComPtr<BlkIoRing> ring = ComPtr<BlkIoRing>::FromQuery(device.get());
  ASSERT_TRUE(ring);  // the IDE glue's native ring, found the §4.4.2 way
  auto* ide = static_cast<linuxdev::LinuxIdeDev*>(device.get());

  constexpr size_t kDepth = 8;
  auto data = Pattern(kDepth * 512, 77);
  bool done = false;
  sim_.Spawn("ring", [&] {
    uint64_t issued_before = ide->drive().requests_issued;
    // Eight adjacent single-sector writes, submitted deepest-first: the
    // scheduler sorts by LBA and merges the run into ONE controller
    // round-trip.
    AioSqe sqes[kDepth];
    for (size_t i = 0; i < kDepth; ++i) {
      size_t rev = kDepth - 1 - i;
      sqes[i] = {AioOp::kWrite, data.data() + rev * 512,
                 static_cast<off_t64>((10 + rev) * 512), 512, 100 + rev};
    }
    size_t accepted = 0;
    ASSERT_EQ(Error::kOk, ring->Submit(sqes, kDepth, &accepted));
    ASSERT_EQ(kDepth, accepted);
    EXPECT_EQ(issued_before + 1, ide->drive().requests_issued);

    AioCqe cqes[kDepth];
    size_t count = 0;
    ASSERT_EQ(Error::kOk, ring->Reap(cqes, kDepth, &count));
    ASSERT_EQ(kDepth, count);
    for (size_t i = 0; i < kDepth; ++i) {
      EXPECT_EQ(Error::kOk, cqes[i].status);
      EXPECT_EQ(512u, cqes[i].actual);
    }

    // Read the span back through the ring and verify per-tag placement.
    std::vector<uint8_t> readback(kDepth * 512);
    for (size_t i = 0; i < kDepth; ++i) {
      sqes[i] = {AioOp::kRead, readback.data() + i * 512,
                 static_cast<off_t64>((10 + i) * 512), 512, 200 + i};
    }
    ASSERT_EQ(Error::kOk, ring->Submit(sqes, kDepth, &accepted));
    ASSERT_EQ(kDepth, accepted);
    ASSERT_EQ(Error::kOk, ring->Reap(cqes, kDepth, &count));
    ASSERT_EQ(kDepth, count);
    EXPECT_EQ(0, memcmp(readback.data(), data.data(), readback.size()));
    done = true;
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(done);
  EXPECT_GE(KernelCounter("glue.ide.ring.merges"), 2u);
  EXPECT_GE(KernelCounter("glue.ide.ring.merged_sqes"), 2 * kDepth);
}

TEST_F(AioIdeTest, FlushSqeDrainsWriteCache) {
  DiskHw* disk = machine_->AddDisk(2048);
  disk->EnableWriteCache(true);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIoRing> ring = ComPtr<BlkIoRing>::FromQuery(device.get());
  ASSERT_TRUE(ring);

  bool done = false;
  sim_.Spawn("flush", [&] {
    auto block = Pattern(512, 8);
    AioSqe sqes[2] = {
        {AioOp::kWrite, block.data(), 0, block.size(), 1},
        {AioOp::kFlush, nullptr, 0, 0, 2},
    };
    size_t accepted = 0;
    ASSERT_EQ(Error::kOk, ring->Submit(sqes, 2, &accepted));
    ASSERT_EQ(2u, accepted);
    AioCqe cqes[2];
    size_t count = 0;
    ASSERT_EQ(Error::kOk, ring->Reap(cqes, 2, &count));
    ASSERT_EQ(2u, count);
    EXPECT_EQ(Error::kOk, cqes[0].status);
    EXPECT_EQ(Error::kOk, cqes[1].status);
    done = true;
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(done);
  // The in-ring barrier drained the disk's volatile cache.
  EXPECT_EQ(0u, disk->cached_writes());
  EXPECT_GE(disk->flushes_completed(), 1u);
}

TEST_F(AioIdeTest, StackedFlushReachesEveryDiskHw) {
  // Three drives, write caches on, striped together with checksum and cache
  // layers stacked on top.  One Flush at the very top must leave NO disk
  // with buffered writes — the barrier fans out through every layer.
  DiskHw* disks[3];
  int irqs[3] = {14, 15, 11};
  for (int i = 0; i < 3; ++i) {
    disks[i] = machine_->AddDisk(2048, irqs[i]);
    disks[i]->EnableWriteCache(true);
  }
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  const char* names[3] = {"hda", "hdb", "hdc"};
  std::vector<ComPtr<BlkIo>> children;
  for (const char* name : names) {
    auto device = registry.LookupByName(name);
    ASSERT_TRUE(device) << name;
    auto child = ComPtr<BlkIo>::FromQuery(device.get());
    ASSERT_TRUE(child);
    children.push_back(std::move(child));
  }

  bool done = false;
  sim_.Spawn("stack", [&] {
    auto stripe = aio::StripeBlkIo::Create(std::move(children), 1024, &kernel_->trace());
    auto sums = aio::ChecksumBlkIo::Create(stripe.get(), &kernel_->trace());
    auto cache = fs::CacheBlkIo::Create(sums.get(), 1024, 16, &kernel_->trace());
    ComPtr<BlkIoBarrier> barrier = ComPtr<BlkIoBarrier>::FromQuery(cache.get());
    ASSERT_TRUE(barrier);

    auto data = Pattern(3 * 1024, 21);  // touches all three members
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, cache->Write(data.data(), 0, data.size(), &actual));
    ASSERT_EQ(data.size(), actual);
    ASSERT_EQ(Error::kOk, barrier->Flush());
    done = true;
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(done);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(0u, disks[i]->cached_writes()) << names[i];
    EXPECT_GE(disks[i]->flushes_completed(), 1u) << names[i];
    EXPECT_GT(disks[i]->writes_completed(), 0u) << names[i];
  }
}

TEST_F(AioIdeTest, PartitionViewPropagatesBarrier) {
  DiskHw* disk = machine_->AddDisk(2048);
  disk->EnableWriteCache(true);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());
  ASSERT_TRUE(blkio);

  Partition part{};
  part.start_sector = 16;
  part.sector_count = 512;
  auto view = MakePartitionView(blkio.get(), part);
  ASSERT_TRUE(view);
  ComPtr<BlkIoBarrier> barrier = ComPtr<BlkIoBarrier>::FromQuery(view.get());
  ASSERT_TRUE(barrier);  // the view forwards the disk's barrier extension

  bool done = false;
  sim_.Spawn("part", [&] {
    auto block = Pattern(512, 4);
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, view->Write(block.data(), 0, block.size(), &actual));
    ASSERT_EQ(Error::kOk, barrier->Flush());
    done = true;
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(done);
  EXPECT_EQ(0u, disk->cached_writes());
  EXPECT_GE(disk->flushes_completed(), 1u);

  // Over a RAM-backed device the forwarded barrier is the trivial one.
  auto mem = MemBlkIo::Create(512 * 512, 512);
  auto memview = MakePartitionView(mem.get(), part);
  auto membar = ComPtr<BlkIoBarrier>::FromQuery(memview.get());
  ASSERT_TRUE(membar);
  EXPECT_EQ(Error::kOk, membar->Flush());
}

// The monitor's 'aio' command: the async-storage counter slice plus the
// owner-plugged per-device ring line.
TEST_F(AioIdeTest, KmonAioDumpsRingCountersAndSource) {
  machine_->AddDisk(2048);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIoRing> ring = ComPtr<BlkIoRing>::FromQuery(device.get());
  ASSERT_TRUE(ring);

  // A few SQEs through the ring first, so the counters have something to say.
  auto data = Pattern(4 * 512, 5);
  sim_.Spawn("io", [&] {
    AioSqe sqes[4];
    for (size_t i = 0; i < 4; ++i) {
      sqes[i] = {AioOp::kWrite, data.data() + i * 512,
                 static_cast<off_t64>(i) * 512, 512, i};
    }
    size_t accepted = 0;
    ASSERT_EQ(Error::kOk, ring->Submit(sqes, 4, &accepted));
    ASSERT_EQ(4u, accepted);
    AioCqe cqes[4];
    size_t count = 0;
    ASSERT_EQ(Error::kOk, ring->Reap(cqes, 4, &count));
    ASSERT_EQ(4u, count);
  });

  KernelMonitor kmon(kernel_.get(), &kernel_->console());
  kmon.SetAioSource([&](const std::function<void(const char*)>& emit) {
    char line[64];
    std::snprintf(line, sizeof(line), "hda ring occupancy=%zu",
                  ring->Occupancy());
    emit(line);
  });
  auto type = [&](const std::string& line) {
    machine_->console_uart().InjectRx(line.data(), line.size());
    machine_->console_uart().InjectRx("\r", 1);
  };
  type("aio");
  type("c");
  sim_.Spawn("kmon", [&] {
    TrapFrame frame;
    kmon.Enter(frame);
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());

  std::string out = machine_->console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find("glue.ide.ring.sqes"));
  EXPECT_NE(std::string::npos, out.find("glue.ide.ring.merges"));
  EXPECT_NE(std::string::npos, out.find("hda ring occupancy=0"));
}

TEST_F(AioIdeTest, IdeBlkIoBoundsAbuse) {
  machine_->AddDisk(2048);
  DeviceRegistry registry;
  ASSERT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev_, machine_.get(), &registry));
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());
  ASSERT_TRUE(blkio);
  bool done = false;
  sim_.Spawn("abuse", [&] {
    testing::AbuseReadBounds(blkio.get(), 2048 * 512);
    testing::AbuseWriteBounds(blkio.get(), 2048 * 512);
    done = true;
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim_.Run());
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace oskit
