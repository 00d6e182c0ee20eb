#include "src/diskpart/diskpart.h"

#include <algorithm>
#include <cstring>

#include "src/base/byteorder.h"
#include "src/base/panic.h"

namespace oskit {
namespace {

constexpr size_t kMbrEntryOffset = 446;
constexpr size_t kMbrEntrySize = 16;
constexpr uint8_t kMbrSig0 = 0x55;
constexpr uint8_t kMbrSig1 = 0xaa;

constexpr uint32_t kDisklabelMagic = 0x82564557;  // historical BSD value
constexpr size_t kDisklabelMaxParts = 8;

Error ReadSector(BlkIo* disk, uint64_t sector, uint8_t* buf) {
  size_t actual = 0;
  Error err = disk->Read(buf, sector * kDiskSectorSize, kDiskSectorSize, &actual);
  if (!Ok(err)) {
    return err;
  }
  if (actual != kDiskSectorSize) {
    return Error::kOutOfRange;
  }
  return Error::kOk;
}

struct RawEntry {
  uint8_t status;
  uint8_t type;
  uint32_t lba_start;
  uint32_t sectors;
};

RawEntry ParseEntry(const uint8_t* p) {
  RawEntry e;
  e.status = p[0];
  e.type = p[4];
  e.lba_start = LoadLe32(p + 8);
  e.sectors = LoadLe32(p + 12);
  return e;
}

// Reads the disklabel inside a BSD slice and appends its sub-partitions.
Error ReadDisklabel(BlkIo* disk, const Partition& slice, std::vector<Partition>* out) {
  uint8_t sector[kDiskSectorSize];
  Error err = ReadSector(disk, slice.start_sector + 1, sector);
  if (!Ok(err)) {
    return err;
  }
  if (LoadLe32(sector) != kDisklabelMagic) {
    return Error::kCorrupt;
  }
  uint16_t nparts = LoadLe16(sector + 4);
  if (nparts > kDisklabelMaxParts) {
    return Error::kCorrupt;
  }
  // Entries at offset 16: {size(4), offset(4), type(1), pad(7)} each.
  for (uint16_t i = 0; i < nparts; ++i) {
    const uint8_t* p = sector + 16 + i * 16;
    uint32_t size = LoadLe32(p);
    uint32_t offset = LoadLe32(p + 4);
    uint8_t type = p[8];
    if (size == 0) {
      continue;
    }
    if (static_cast<uint64_t>(offset) + size > slice.sector_count) {
      return Error::kCorrupt;
    }
    Partition sub;
    sub.start_sector = slice.start_sector + offset;
    sub.sector_count = size;
    sub.type = type;
    sub.index = i;
    sub.from_disklabel = true;
    out->push_back(sub);
  }
  return Error::kOk;
}

}  // namespace

Error ReadPartitions(BlkIo* disk, std::vector<Partition>* out) {
  out->clear();
  uint8_t sector[kDiskSectorSize];
  Error err = ReadSector(disk, 0, sector);
  if (!Ok(err)) {
    return err;
  }
  if (sector[510] != kMbrSig0 || sector[511] != kMbrSig1) {
    return Error::kCorrupt;
  }

  off_t64 disk_size = 0;
  err = disk->GetSize(&disk_size);
  if (!Ok(err)) {
    return err;
  }
  uint64_t disk_sectors = disk_size / kDiskSectorSize;

  std::vector<Partition> extended_chain;
  int index = 1;
  for (int i = 0; i < 4; ++i) {
    RawEntry e = ParseEntry(sector + kMbrEntryOffset + i * kMbrEntrySize);
    if (e.type == kPartTypeEmpty || e.sectors == 0) {
      ++index;
      continue;
    }
    if (static_cast<uint64_t>(e.lba_start) + e.sectors > disk_sectors) {
      return Error::kCorrupt;
    }
    Partition part;
    part.start_sector = e.lba_start;
    part.sector_count = e.sectors;
    part.type = e.type;
    part.bootable = (e.status & 0x80) != 0;
    part.index = index++;
    if (e.type == kPartTypeExtended) {
      extended_chain.push_back(part);
    } else {
      out->push_back(part);
    }
  }

  // Walk extended-partition EBR chains; logical partitions number from 5.
  // A chain that revisits an EBR, or runs past kMaxEbrHops links, is a
  // corrupt table rather than a long one.
  constexpr int kMaxEbrHops = 64;
  int logical = 5;
  for (const Partition& ext : extended_chain) {
    uint64_t ebr_sector = ext.start_sector;
    uint64_t visited[kMaxEbrHops];
    for (int hops = 0;; ++hops) {
      if (hops == kMaxEbrHops ||
          std::find(visited, visited + hops, ebr_sector) != visited + hops) {
        return Error::kCorrupt;
      }
      visited[hops] = ebr_sector;
      err = ReadSector(disk, ebr_sector, sector);
      if (!Ok(err)) {
        return err;
      }
      if (sector[510] != kMbrSig0 || sector[511] != kMbrSig1) {
        return Error::kCorrupt;
      }
      RawEntry data = ParseEntry(sector + kMbrEntryOffset);
      RawEntry next = ParseEntry(sector + kMbrEntryOffset + kMbrEntrySize);
      if (data.type != kPartTypeEmpty && data.sectors != 0) {
        Partition part;
        part.start_sector = ebr_sector + data.lba_start;
        part.sector_count = data.sectors;
        part.type = data.type;
        part.bootable = (data.status & 0x80) != 0;
        part.index = logical++;
        if (part.start_sector + part.sector_count > disk_sectors) {
          return Error::kCorrupt;
        }
        out->push_back(part);
      }
      if (next.type != kPartTypeExtended || next.sectors == 0) {
        break;
      }
      ebr_sector = ext.start_sector + next.lba_start;
    }
  }

  // Descend into BSD slices.
  std::vector<Partition> slices = *out;
  for (const Partition& p : slices) {
    if (p.type == kPartTypeBsd) {
      // A corrupt disklabel is not fatal for the rest of the disk.
      (void)ReadDisklabel(disk, p, out);
    }
  }
  return Error::kOk;
}

namespace {

// BlkIo view of a sector extent of an underlying disk.  Exposes the
// underlying disk's BlkIoBarrier when it has one, so flush semantics
// propagate through partition-backed stacks (striping over partition views
// must be able to reach every DiskHw's write cache).
class PartitionView final
    : public ComObject<PartitionView, BlkIo, BlkIoBarrier> {
 public:
  PartitionView(ComPtr<BlkIo> disk, uint64_t start_byte, uint64_t byte_count)
      : disk_(std::move(disk)), start_(start_byte), count_(byte_count) {
    barrier_ = ComPtr<BlkIoBarrier>::FromQuery(disk_.get());
  }

  bool Grants(const Guid& iid) const {
    return iid != BlkIoBarrier::kIid || barrier_;
  }

  uint32_t GetBlockSize() override { return disk_->GetBlockSize(); }

  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    *out_actual = 0;
    Error err = ClampRange(count_, offset, &amount);
    if (!Ok(err)) {
      return err;
    }
    return disk_->Read(buf, start_ + offset, amount, out_actual);
  }

  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    *out_actual = 0;
    Error err = ClampRange(count_, offset, &amount);
    if (!Ok(err)) {
      return err;
    }
    return disk_->Write(buf, start_ + offset, amount, out_actual);
  }

  Error GetSize(off_t64* out_size) override {
    *out_size = count_;
    return Error::kOk;
  }

  Error Flush() override { return barrier_ ? barrier_->Flush() : Error::kOk; }

 private:
  friend class RefCounted<PartitionView>;
  ~PartitionView() = default;

  ComPtr<BlkIo> disk_;
  ComPtr<BlkIoBarrier> barrier_;
  uint64_t start_;
  uint64_t count_;
};

}  // namespace

ComPtr<BlkIo> MakePartitionView(BlkIo* disk, const Partition& partition) {
  return ComPtr<BlkIo>(new PartitionView(ComPtr<BlkIo>::Retain(disk),
                                         partition.start_sector * kDiskSectorSize,
                                         partition.sector_count * kDiskSectorSize));
}

Error WriteMbr(BlkIo* disk, const std::vector<Partition>& primaries) {
  if (primaries.size() > 4) {
    return Error::kInval;
  }
  uint8_t sector[kDiskSectorSize];
  std::memset(sector, 0, sizeof(sector));
  for (size_t i = 0; i < primaries.size(); ++i) {
    const Partition& p = primaries[i];
    uint8_t* e = sector + kMbrEntryOffset + i * kMbrEntrySize;
    e[0] = p.bootable ? 0x80 : 0x00;
    e[4] = p.type;
    StoreLe32(e + 8, static_cast<uint32_t>(p.start_sector));
    StoreLe32(e + 12, static_cast<uint32_t>(p.sector_count));
  }
  sector[510] = kMbrSig0;
  sector[511] = kMbrSig1;
  size_t actual = 0;
  return disk->Write(sector, 0, kDiskSectorSize, &actual);
}

Error WriteDisklabel(BlkIo* slice, const std::vector<Partition>& subs) {
  if (subs.size() > kDisklabelMaxParts) {
    return Error::kInval;
  }
  uint8_t sector[kDiskSectorSize];
  std::memset(sector, 0, sizeof(sector));
  StoreLe32(sector, kDisklabelMagic);
  StoreLe16(sector + 4, static_cast<uint16_t>(subs.size()));
  for (size_t i = 0; i < subs.size(); ++i) {
    uint8_t* p = sector + 16 + i * 16;
    StoreLe32(p, static_cast<uint32_t>(subs[i].sector_count));
    StoreLe32(p + 4, static_cast<uint32_t>(subs[i].start_sector));
    p[8] = subs[i].type;
  }
  size_t actual = 0;
  return slice->Write(sector, kDiskSectorSize, kDiskSectorSize, &actual);
}

}  // namespace oskit
