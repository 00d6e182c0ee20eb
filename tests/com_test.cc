// COM model tests (§4.4): GUID identity, QueryInterface semantics
// (safe downcast / interface extension), reference counting, and the
// Figure 2 blkio contract via MemBlkIo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/com/bufio.h"
#include "src/com/memblkio.h"
#include "tests/bounds_abuse.h"

namespace oskit {
namespace {

TEST(GuidTest, EqualityAndDistinctness) {
  EXPECT_TRUE(BlkIo::kIid == BlkIo::kIid);
  EXPECT_FALSE(BlkIo::kIid == BufIo::kIid);
  EXPECT_FALSE(BlkIo::kIid == IUnknown::kIid);
  // The paper's Figure 2 BLKIO_IID, byte for byte.
  EXPECT_EQ(0x4aa7dfe1u, BlkIo::kIid.data1);
  EXPECT_EQ(0x7c74u, BlkIo::kIid.data2);
  EXPECT_EQ(0x11cfu, BlkIo::kIid.data3);
}

TEST(ComTest, QueryForImplementedInterfacesSucceeds) {
  auto io = MemBlkIo::Create(1024);
  // Base interface.
  BlkIo* as_blkio = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(io.get(), &as_blkio));
  ASSERT_NE(nullptr, as_blkio);
  // Extended interface (§4.4.2's blkio -> bufio extension).
  BufIo* as_bufio = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(io.get(), &as_bufio));
  ASSERT_NE(nullptr, as_bufio);
  as_blkio->Release();
  as_bufio->Release();
}

TEST(ComTest, QueryForUnknownInterfaceFails) {
  auto io = MemBlkIo::Create(64);
  constexpr Guid kBogus =
      MakeGuid(0x12345678, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10);
  void* out = reinterpret_cast<void*>(0x1);
  EXPECT_EQ(Error::kNoInterface, io->Query(kBogus, &out));
  EXPECT_EQ(nullptr, out);
}

TEST(ComTest, ReferenceCountingLifecycle) {
  auto io = MemBlkIo::Create(64);
  EXPECT_EQ(1u, io->ref_count());
  io->AddRef();
  EXPECT_EQ(2u, io->ref_count());
  io->Release();
  EXPECT_EQ(1u, io->ref_count());

  // Query adds a reference on behalf of the caller.
  BlkIo* extra = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(io.get(), &extra));
  EXPECT_EQ(2u, io->ref_count());
  extra->Release();
  EXPECT_EQ(1u, io->ref_count());
}

TEST(ComTest, ComPtrManagesReferences) {
  auto io = MemBlkIo::Create(64);
  {
    ComPtr<MemBlkIo> copy = io;
    EXPECT_EQ(2u, io->ref_count());
    ComPtr<MemBlkIo> moved = std::move(copy);
    EXPECT_EQ(2u, io->ref_count());
    EXPECT_EQ(nullptr, copy.get());  // NOLINT(bugprone-use-after-move)
  }
  EXPECT_EQ(1u, io->ref_count());
}

TEST(MemBlkIoTest, ReadWriteRoundTrip) {
  auto io = MemBlkIo::Create(4096, /*block_size=*/512);
  EXPECT_EQ(512u, io->GetBlockSize());
  uint8_t pattern[512];
  for (size_t i = 0; i < sizeof(pattern); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 3);
  }
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->Write(pattern, 1024, sizeof(pattern), &actual));
  EXPECT_EQ(sizeof(pattern), actual);
  uint8_t readback[512] = {};
  ASSERT_EQ(Error::kOk, io->Read(readback, 1024, sizeof(readback), &actual));
  EXPECT_EQ(sizeof(readback), actual);
  EXPECT_EQ(0, memcmp(pattern, readback, sizeof(pattern)));
}

TEST(MemBlkIoTest, ShortReadAtEnd) {
  auto io = MemBlkIo::Create(100);
  uint8_t buf[64];
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->Read(buf, 80, sizeof(buf), &actual));
  EXPECT_EQ(20u, actual);
  EXPECT_EQ(Error::kOutOfRange, io->Read(buf, 200, sizeof(buf), &actual));
}

TEST(MemBlkIoTest, GetSizeAndSetSize) {
  auto io = MemBlkIo::Create(128);
  off_t64 size = 0;
  ASSERT_EQ(Error::kOk, io->GetSize(&size));
  EXPECT_EQ(128u, size);
  ASSERT_EQ(Error::kOk, io->SetSize(256));
  ASSERT_EQ(Error::kOk, io->GetSize(&size));
  EXPECT_EQ(256u, size);
}

TEST(MemBlkIoTest, MapGivesDirectAccess) {
  const char kText[] = "buffered object";
  auto io = MemBlkIo::CreateFrom(kText, sizeof(kText));
  void* addr = nullptr;
  ASSERT_EQ(Error::kOk, io->Map(&addr, 0, sizeof(kText)));
  EXPECT_EQ(0, memcmp(addr, kText, sizeof(kText)));
  // Writing through the mapping is visible via Read.
  static_cast<char*>(addr)[0] = 'B';
  char readback[sizeof(kText)];
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->Read(readback, 0, sizeof(kText), &actual));
  EXPECT_EQ('B', readback[0]);
  ASSERT_EQ(Error::kOk, io->Unmap(addr, 0, sizeof(kText)));
}

TEST(MemBlkIoTest, SetSizeWhileMappedIsRefused) {
  auto io = MemBlkIo::Create(64);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->Write("abc", 0, 3, &actual));
  void* addr = nullptr;
  ASSERT_EQ(Error::kOk, io->Map(&addr, 0, 64));
  EXPECT_EQ(Error::kBusy, io->SetSize(128));
  EXPECT_EQ(Error::kBusy, io->SetSize(0));
  // Refused means untouched: the mapping neither moved nor changed.
  EXPECT_EQ(addr, io->data());
  EXPECT_EQ(0, memcmp(addr, "abc", 3));
  ASSERT_EQ(Error::kOk, io->Unmap(addr, 0, 64));
  EXPECT_EQ(Error::kOk, io->SetSize(128));
}

TEST(MemBlkIoTest, SetSizeKeepsPrefixAndZeroTail) {
  constexpr size_t kStart = 5000;  // not a page multiple: a partial last page
  auto io = MemBlkIo::Create(kStart);
  std::vector<uint8_t> pattern(kStart);
  for (size_t i = 0; i < kStart; ++i) {
    pattern[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->Write(pattern.data(), 0, kStart, &actual));
  auto expect = [&](size_t size, size_t prefix) {
    ASSERT_EQ(size, io->size());
    EXPECT_EQ(0, memcmp(io->data(), pattern.data(), prefix));
    for (size_t i = prefix; i < size; ++i) {
      ASSERT_EQ(0, io->data()[i]) << "byte " << i;
    }
  };
  ASSERT_EQ(Error::kOk, io->SetSize(3 * 4096 + 10));  // grow across pages
  expect(3 * 4096 + 10, kStart);
  ASSERT_EQ(Error::kOk, io->SetSize(4500));  // shrink inside the second page
  expect(4500, 4500);
  ASSERT_EQ(Error::kOk, io->SetSize(100));  // shrink into the first page
  expect(100, 100);
  ASSERT_EQ(Error::kOk, io->SetSize(64 * 1024));  // the given-up bytes stay zero
  expect(64 * 1024, 100);
}

TEST(MemBlkIoTest, SizeZeroObject) {
  auto io = MemBlkIo::Create(0, 512);
  off_t64 size = 1;
  ASSERT_EQ(Error::kOk, io->GetSize(&size));
  EXPECT_EQ(0u, size);
  uint8_t buf[16] = {};
  size_t actual = 1;
  EXPECT_EQ(Error::kOk, io->Read(buf, 0, sizeof(buf), &actual));
  EXPECT_EQ(0u, actual);
  EXPECT_EQ(Error::kOk, io->Write(buf, 0, sizeof(buf), &actual));
  EXPECT_EQ(0u, actual);
  EXPECT_EQ(Error::kOutOfRange, io->Read(buf, 1, 1, &actual));
  void* addr = nullptr;
  ASSERT_EQ(Error::kOk, io->Map(&addr, 0, 0));
  ASSERT_EQ(Error::kOk, io->Unmap(addr, 0, 0));
  EXPECT_EQ(0u, MemBlkIo::CreateFrom(nullptr, 0)->size());
  // Growing from nothing and shrinking back to nothing.
  ASSERT_EQ(Error::kOk, io->SetSize(4096));
  ASSERT_EQ(Error::kOk, io->Write("x", 4095, 1, &actual));
  EXPECT_EQ('x', io->data()[4095]);
  ASSERT_EQ(Error::kOk, io->SetSize(0));
  EXPECT_EQ(nullptr, io->data());
}

// An object's mapping, read without taking its mutable bytes (data() would
// keep the mapping from being parked).
const void* MappingOf(MemBlkIo* io) {
  void* addr = nullptr;
  EXPECT_EQ(Error::kOk, io->Map(&addr, 0, 0));
  EXPECT_EQ(Error::kOk, io->Unmap(addr, 0, 0));
  return addr;
}

void ExpectReadsZero(MemBlkIo* io) {
  std::vector<uint8_t> bytes(io->size(), 1);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->Read(bytes.data(), 0, bytes.size(), &actual));
  ASSERT_EQ(bytes.size(), actual);
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; }));
}

// A released object parks its mapping: the next object of its page span
// takes the same mapping back, reading zero, however its bytes were written.
TEST(MemBlkIoTest, ReleasedObjectIsRetakenZeroed) {
  constexpr size_t kSize = 24 * 4096 + 300;
  std::vector<uint8_t> pattern(kSize);
  for (size_t i = 0; i < kSize; ++i) {
    pattern[i] = static_cast<uint8_t>(i % 251 + 1);
  }
  PageSet written(kSize);
  written.Mark(5000, 9000);
  written.Mark(kSize - 1, 1);
  enum class Way { kWrite, kMap, kCreateFrom, kCreateFromImage };
  for (Way way : {Way::kWrite, Way::kMap, Way::kCreateFrom, Way::kCreateFromImage}) {
    SCOPED_TRACE(static_cast<int>(way));
    const void* first = nullptr;
    {
      ComPtr<MemBlkIo> io;
      size_t actual = 0;
      void* addr = nullptr;
      switch (way) {
        case Way::kWrite:
          io = MemBlkIo::Create(kSize, 512);
          ASSERT_EQ(Error::kOk, io->Write(pattern.data(), 100, 5000, &actual));
          ASSERT_EQ(Error::kOk, io->Write(pattern.data(), kSize - 1, 1, &actual));
          break;
        case Way::kMap:
          // The caller may store anywhere in the window, so all of it counts.
          io = MemBlkIo::Create(kSize, 512);
          ASSERT_EQ(Error::kOk, io->Map(&addr, 8190, 3 * 4096));
          std::memcpy(addr, pattern.data(), 3 * 4096);
          ASSERT_EQ(Error::kOk, io->Unmap(addr, 8190, 3 * 4096));
          break;
        case Way::kCreateFrom:
          io = MemBlkIo::CreateFrom(pattern.data(), kSize, 512);
          break;
        case Way::kCreateFromImage:
          io = MemBlkIo::CreateFrom(SparseImage(pattern.data(), kSize, &written), kSize, 512);
          break;
      }
      first = MappingOf(io.get());
    }
    auto again = MemBlkIo::Create(kSize - 200, 512);  // the same page span
    EXPECT_EQ(first, MappingOf(again.get()));
    ExpectReadsZero(again.get());
  }
}

// SetSize carries the written set with the bytes: pages written after a
// grow are recorded, so they too read zero when the mapping is retaken.
TEST(MemBlkIoTest, SetSizeKeepsTheWrittenSetSized) {
  constexpr size_t kBig = 300 * 4096;  // past the set's first words
  auto io = MemBlkIo::Create(0, 512);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->SetSize(kBig));
  ASSERT_EQ(Error::kOk, io->Write("abc", kBig - 3, 3, &actual));
  ASSERT_EQ(Error::kOk, io->SetSize(2 * 4096 + 7));
  ASSERT_EQ(Error::kOk, io->Write("d", 2 * 4096 + 6, 1, &actual));
  ASSERT_EQ(Error::kOk, io->SetSize(kBig));  // the given-up pages come back zero
  std::vector<uint8_t> tail(kBig - (2 * 4096 + 7), 1);
  ASSERT_EQ(Error::kOk, io->Read(tail.data(), 2 * 4096 + 7, tail.size(), &actual));
  EXPECT_TRUE(std::all_of(tail.begin(), tail.end(), [](uint8_t b) { return b == 0; }));
  ASSERT_EQ(Error::kOk, io->Write("efg", 299 * 4096 + 17, 3, &actual));
  const void* first = MappingOf(io.get());
  io.Reset();
  auto again = MemBlkIo::Create(kBig, 512);
  EXPECT_EQ(first, MappingOf(again.get()));
  ExpectReadsZero(again.get());
}

TEST(MemBlkIoTest, HugeSetSizeFailsCleanly) {
  auto io = MemBlkIo::CreateFrom("abc", 3);
  EXPECT_EQ(Error::kNoMem, io->SetSize(~off_t64{0} - 100));  // rounding overflows
  EXPECT_EQ(Error::kNoMem, io->SetSize(off_t64{1} << 50));    // past the address space
  EXPECT_EQ(3u, io->size());
  EXPECT_EQ(0, memcmp(io->data(), "abc", 3));
  // The failed remap left the guard page in place and the object usable.
  ASSERT_EQ(Error::kOk, io->SetSize(8192));
  EXPECT_EQ(0, memcmp(io->data(), "abc", 3));
}

TEST(MemBlkIoDeathTest, WriteOnePastMappedEndFaults) {
  auto io = MemBlkIo::Create(2 * 4096, 512);
  void* addr = nullptr;
  ASSERT_EQ(Error::kOk, io->Map(&addr, 0, 2 * 4096));
  volatile uint8_t* end = static_cast<uint8_t*>(addr) + 2 * 4096;
  EXPECT_DEATH(*end = 1, "");
  ASSERT_EQ(Error::kOk, io->Unmap(addr, 0, 2 * 4096));
}

TEST(MemBlkIoTest, MapOutOfRangeFails) {
  auto io = MemBlkIo::Create(64);
  void* addr = nullptr;
  EXPECT_EQ(Error::kOutOfRange, io->Map(&addr, 32, 64));
}

TEST(MemBlkIoTest, BoundsAbuse) {
  auto io = MemBlkIo::Create(4096, 512);
  testing::AbuseReadBounds(io.get(), 4096);
  testing::AbuseWriteBounds(io.get(), 4096);
  testing::AbuseMapBounds(testing::MapWindow(io.get()), 4096);
}

}  // namespace
}  // namespace oskit
