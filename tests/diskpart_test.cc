// Partition-table tests: MBR primaries, extended/EBR chains, BSD
// disklabels, partition views, and corrupt-table rejection.

#include <gtest/gtest.h>

#include <cstring>

#include "src/base/byteorder.h"
#include "src/com/memblkio.h"
#include "src/diskpart/diskpart.h"
#include "tests/bounds_abuse.h"

namespace oskit {
namespace {

ComPtr<MemBlkIo> MakeDisk(uint64_t sectors) {
  return MemBlkIo::Create(sectors * kDiskSectorSize, kDiskSectorSize);
}

TEST(DiskPartTest, EmptyDiskIsCorrupt) {
  auto disk = MakeDisk(128);
  std::vector<Partition> parts;
  EXPECT_EQ(Error::kCorrupt, ReadPartitions(disk.get(), &parts));
}

TEST(DiskPartTest, WriteAndReadPrimaries) {
  auto disk = MakeDisk(10000);
  std::vector<Partition> out = {
      {.start_sector = 63, .sector_count = 4000, .type = kPartTypeLinux, .bootable = true},
      {.start_sector = 4063, .sector_count = 2000, .type = kPartTypeFat16},
  };
  ASSERT_EQ(Error::kOk, WriteMbr(disk.get(), out));

  std::vector<Partition> in;
  ASSERT_EQ(Error::kOk, ReadPartitions(disk.get(), &in));
  ASSERT_EQ(2u, in.size());
  EXPECT_EQ(63u, in[0].start_sector);
  EXPECT_EQ(4000u, in[0].sector_count);
  EXPECT_EQ(kPartTypeLinux, in[0].type);
  EXPECT_TRUE(in[0].bootable);
  EXPECT_EQ(1, in[0].index);
  EXPECT_EQ(kPartTypeFat16, in[1].type);
  EXPECT_FALSE(in[1].bootable);
  EXPECT_EQ(2, in[1].index);
}

TEST(DiskPartTest, RejectsPartitionBeyondDisk) {
  auto disk = MakeDisk(1000);
  std::vector<Partition> out = {
      {.start_sector = 63, .sector_count = 5000, .type = kPartTypeLinux},
  };
  ASSERT_EQ(Error::kOk, WriteMbr(disk.get(), out));
  std::vector<Partition> in;
  EXPECT_EQ(Error::kCorrupt, ReadPartitions(disk.get(), &in));
}

TEST(DiskPartTest, ExtendedChainYieldsLogicals) {
  auto disk = MakeDisk(20000);
  // Primary 1 + an extended partition containing two logicals.
  std::vector<Partition> primaries = {
      {.start_sector = 63, .sector_count = 1000, .type = kPartTypeLinux},
      {.start_sector = 2000, .sector_count = 10000, .type = kPartTypeExtended},
  };
  ASSERT_EQ(Error::kOk, WriteMbr(disk.get(), primaries));

  // First EBR at 2000: logical data at +63 (1000 sectors), next EBR at +4000.
  uint8_t ebr[kDiskSectorSize];
  auto write_ebr = [&](uint64_t at, uint32_t data_rel, uint32_t data_len,
                       uint32_t next_rel, uint32_t next_len) {
    memset(ebr, 0, sizeof(ebr));
    uint8_t* e = ebr + 446;
    e[4] = kPartTypeLinux;
    StoreLe32(e + 8, data_rel);
    StoreLe32(e + 12, data_len);
    if (next_len != 0) {
      uint8_t* n = ebr + 446 + 16;
      n[4] = kPartTypeExtended;
      StoreLe32(n + 8, next_rel);
      StoreLe32(n + 12, next_len);
    }
    ebr[510] = 0x55;
    ebr[511] = 0xaa;
    size_t actual;
    ASSERT_EQ(Error::kOk,
              disk->Write(ebr, at * kDiskSectorSize, kDiskSectorSize, &actual));
  };
  write_ebr(2000, 63, 1000, 4000, 2000);
  write_ebr(6000, 63, 500, 0, 0);

  std::vector<Partition> in;
  ASSERT_EQ(Error::kOk, ReadPartitions(disk.get(), &in));
  ASSERT_EQ(3u, in.size());
  EXPECT_EQ(5, in[1].index);  // logicals number from 5
  EXPECT_EQ(2063u, in[1].start_sector);
  EXPECT_EQ(1000u, in[1].sector_count);
  EXPECT_EQ(6, in[2].index);
  EXPECT_EQ(6063u, in[2].start_sector);
  EXPECT_EQ(500u, in[2].sector_count);
}

TEST(DiskPartTest, CyclicExtendedChainIsCorrupt) {
  auto disk = MakeDisk(2000);
  std::vector<Partition> primaries = {
      {.start_sector = 100, .sector_count = 1000, .type = kPartTypeExtended},
  };
  ASSERT_EQ(Error::kOk, WriteMbr(disk.get(), primaries));

  // EBR at 100: a logical at +10, next EBR at +200 (sector 300).  EBR at
  // 300: a logical at +10, next EBR at +0 -- back to sector 100.
  auto write_ebr = [&](uint64_t at, uint32_t next_rel) {
    uint8_t ebr[kDiskSectorSize] = {};
    uint8_t* e = ebr + 446;
    e[4] = kPartTypeLinux;
    StoreLe32(e + 8, 10);
    StoreLe32(e + 12, 50);
    uint8_t* n = ebr + 446 + 16;
    n[4] = kPartTypeExtended;
    StoreLe32(n + 8, next_rel);
    StoreLe32(n + 12, 100);
    ebr[510] = 0x55;
    ebr[511] = 0xaa;
    size_t actual;
    ASSERT_EQ(Error::kOk,
              disk->Write(ebr, at * kDiskSectorSize, kDiskSectorSize, &actual));
  };
  write_ebr(100, 200);
  write_ebr(300, 0);

  std::vector<Partition> in;
  EXPECT_EQ(Error::kCorrupt, ReadPartitions(disk.get(), &in));
}

TEST(DiskPartTest, BsdDisklabelSlices) {
  auto disk = MakeDisk(20000);
  std::vector<Partition> primaries = {
      {.start_sector = 100, .sector_count = 8000, .type = kPartTypeBsd},
  };
  ASSERT_EQ(Error::kOk, WriteMbr(disk.get(), primaries));

  auto slice = MakePartitionView(disk.get(), primaries[0]);
  std::vector<Partition> subs = {
      {.start_sector = 16, .sector_count = 4000, .type = kPartTypeOskitFs},
      {.start_sector = 4016, .sector_count = 3000, .type = kPartTypeLinux},
  };
  ASSERT_EQ(Error::kOk, WriteDisklabel(slice.get(), subs));

  std::vector<Partition> in;
  ASSERT_EQ(Error::kOk, ReadPartitions(disk.get(), &in));
  ASSERT_EQ(3u, in.size());  // the slice + two disklabel partitions
  EXPECT_FALSE(in[0].from_disklabel);
  EXPECT_TRUE(in[1].from_disklabel);
  EXPECT_EQ(116u, in[1].start_sector);  // absolute: slice start + offset
  EXPECT_EQ(4000u, in[1].sector_count);
  EXPECT_TRUE(in[2].from_disklabel);
  EXPECT_EQ(4116u, in[2].start_sector);
}

TEST(DiskPartTest, PartitionViewBoundsIo) {
  auto disk = MakeDisk(1000);
  Partition part{.start_sector = 100, .sector_count = 10, .type = kPartTypeLinux};
  auto view = MakePartitionView(disk.get(), part);

  off_t64 size = 0;
  ASSERT_EQ(Error::kOk, view->GetSize(&size));
  EXPECT_EQ(10u * kDiskSectorSize, size);

  // A write through the view lands at the right absolute offset.
  uint8_t data[kDiskSectorSize];
  memset(data, 0x77, sizeof(data));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, view->Write(data, 0, sizeof(data), &actual));
  uint8_t check[kDiskSectorSize];
  ASSERT_EQ(Error::kOk,
            disk->Read(check, 100 * kDiskSectorSize, sizeof(check), &actual));
  EXPECT_EQ(0x77, check[0]);

  // Reads clamp to the partition and cannot escape it.
  uint8_t big[2 * kDiskSectorSize];
  ASSERT_EQ(Error::kOk,
            view->Read(big, 9 * kDiskSectorSize, sizeof(big), &actual));
  EXPECT_EQ(kDiskSectorSize, actual);
  EXPECT_EQ(Error::kOutOfRange, view->Read(big, 11 * kDiskSectorSize, 16, &actual));
}

TEST(DiskPartTest, PartitionViewBoundsAbuse) {
  auto disk = MakeDisk(1000);
  Partition part{.start_sector = 100, .sector_count = 10, .type = kPartTypeLinux};
  auto view = MakePartitionView(disk.get(), part);
  testing::AbuseReadBounds(view.get(), 10 * kDiskSectorSize);
  testing::AbuseWriteBounds(view.get(), 10 * kDiskSectorSize);
}

}  // namespace
}  // namespace oskit
