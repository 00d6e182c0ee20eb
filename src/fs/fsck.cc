#include "src/fs/fsck.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>

#include "src/fs/ffs.h"
#include "src/fs/format.h"
#include "src/fs/journal.h"
#include "src/libc/format.h"
#include "src/libc/string.h"

namespace oskit::fs {

namespace {

unsigned long long Ull(uint64_t v) { return v; }  // for Problem's %llu

class Checker {
 public:
  Checker(BlkIo* device, const FsckOptions& options)
      : device_(device), options_(options) {}

  FsckReport Run() {
    if (!LoadSuperBlock()) {
      return report_;
    }
    report_.superblock_valid = true;
    report_.was_clean = sb_.clean != 0;

    CheckJournal();
    if (options_.replay_journal && report_.journal_replayed_txns > 0) {
      // Replay rewrote metadata (possibly block 0 itself): re-read the
      // superblock and check the repaired image.
      if (!LoadSuperBlock()) {
        return report_;
      }
      report_.was_clean = sb_.clean != 0;
    }

    block_seen_.assign(sb_.total_blocks, false);
    inode_links_.clear();

    // Metadata blocks are implicitly in use.
    for (uint32_t b = 0; b < sb_.data_start; ++b) {
      block_seen_[b] = true;
    }

    WalkTree();
    CheckInodeTable();
    CheckBitmap();

    report_.consistent = report_.problems.empty();
    return report_;
  }

 private:
  void Problem(const char* format, ...) __attribute__((format(printf, 2, 3))) {
    char buf[256];
    va_list args;
    va_start(args, format);
    libc::Vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    report_.problems.emplace_back(buf);
  }

  bool LoadSuperBlock() {
    if (!Ok(ReadSuperBlock(device_, &sb_))) {
      report_.problems.emplace_back("bad or unreadable superblock");
      return false;
    }
    return true;
  }

  void CheckJournal() {
    if (sb_.journal_blocks == 0) {
      return;
    }
    if (sb_.journal_blocks < kMinJournalBlocks ||
        sb_.journal_start < sb_.itable_start ||
        sb_.journal_start + sb_.journal_blocks > sb_.data_start) {
      Problem("journal region [%u,+%u) does not fit the metadata area",
              sb_.journal_start, sb_.journal_blocks);
      return;
    }
    JournalReplayStats stats;
    Error err = JournalReplay(device_, sb_, options_.replay_journal, &stats);
    if (!Ok(err)) {
      Problem("journal superblock failed validation");
      return;
    }
    report_.journal_present = stats.journal_present;
    report_.journal_discarded_txns = stats.discarded_txns;
    if (options_.replay_journal) {
      report_.journal_replayed_txns = stats.replayed_txns;
    } else {
      report_.journal_pending_txns = stats.replayed_txns;
      if (stats.replayed_txns > 0) {
        // Committed-but-unapplied transactions mean the home-location
        // metadata may be arbitrarily stale; checking it without replay
        // would report phantom corruption.
        Problem("journal has %u unapplied transactions (run with replay)",
                stats.replayed_txns);
      }
    }
  }

  bool ReadInodeRaw(uint64_t ino, DiskInode* out) {
    if (ino == 0 || ino >= sb_.inode_count) {
      return false;
    }
    uint32_t block = sb_.itable_start + static_cast<uint32_t>(ino / kInodesPerBlock);
    uint8_t data[kBlockSize];
    if (!ReadBlockRaw(block, data)) {
      return false;
    }
    std::memcpy(out, data + (ino % kInodesPerBlock) * kInodeSize, sizeof(DiskInode));
    return true;
  }

  bool ReadBlockRaw(uint32_t block, uint8_t* out) {
    return Ok(fs::ReadBlockRaw(device_, block, out));
  }

  // Claims a block for `ino`; reports double-claims and range errors.
  bool Claim(uint64_t ino, uint32_t block) {
    if (block < sb_.data_start || block >= sb_.total_blocks) {
      Problem("inode %llu references out-of-range block %u", Ull(ino), block);
      return false;
    }
    if (block_seen_[block]) {
      Problem("block %u multiply claimed (by inode %llu)", block, Ull(ino));
      return false;
    }
    block_seen_[block] = true;
    ++report_.blocks_in_use;
    return true;
  }

  // Enumerates all blocks held by the inode (data + indirect), claiming
  // each, and returns the count.
  uint32_t ClaimInodeBlocks(uint64_t ino, const DiskInode& inode) {
    uint32_t held = 0;
    for (uint32_t i = 0; i < kDirectBlocks; ++i) {
      if (inode.direct[i] != 0 && Claim(ino, inode.direct[i])) {
        ++held;
      }
    }
    if (inode.indirect != 0 && Claim(ino, inode.indirect)) {
      held += 1 + ClaimSlots(ino, inode.indirect);
    }
    if (inode.double_indirect != 0 && Claim(ino, inode.double_indirect)) {
      ++held;
      uint8_t outer[kBlockSize];
      if (ReadBlockRaw(inode.double_indirect, outer)) {
        for (uint32_t o = 0; o < kPointersPerBlock; ++o) {
          uint32_t mid = 0;
          std::memcpy(&mid, outer + o * 4, 4);
          if (mid != 0) {
            held += (Claim(ino, mid) ? 1 : 0) + ClaimSlots(ino, mid);
          }
        }
      }
    }
    return held;
  }

  // Claims every block a pointer table names; returns how many it claimed.
  uint32_t ClaimSlots(uint64_t ino, uint32_t table_block) {
    uint8_t table[kBlockSize];
    uint32_t claimed = 0;
    if (ReadBlockRaw(table_block, table)) {
      for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
        uint32_t slot = 0;
        std::memcpy(&slot, table + i * 4, 4);
        if (slot != 0 && Claim(ino, slot)) {
          ++claimed;
        }
      }
    }
    return claimed;
  }

  void WalkTree() {
    std::deque<uint64_t> queue;
    std::map<uint64_t, bool> visited;
    queue.push_back(kRootIno);
    while (!queue.empty()) {
      uint64_t ino = queue.front();
      queue.pop_front();
      if (visited.count(ino) > 0) {
        continue;
      }
      visited[ino] = true;

      DiskInode inode;
      if (!ReadInodeRaw(ino, &inode)) {
        Problem("unreadable inode %llu", Ull(ino));
        continue;
      }
      uint16_t type = inode.mode & kModeTypeMask;
      if (type == kModeFree) {
        Problem("directory references free inode %llu", Ull(ino));
        continue;
      }
      ++report_.inodes_in_use;
      uint32_t held = ClaimInodeBlocks(ino, inode);
      if (held != inode.blocks) {
        Problem("inode %llu holds %u blocks but records %u",
                Ull(ino), held, inode.blocks);
      }

      if (type == kModeDirectory) {
        ++report_.directories;
        ScanDirectory(ino, inode, held, &queue);
      } else {
        ++report_.regular_files;
        inode_links_[ino] += 0;  // ensure presence; counted via dir scan
      }
    }

    // Link-count verification for everything we saw referenced.
    for (const auto& [ino, links] : inode_links_) {
      DiskInode inode;
      if (!ReadInodeRaw(ino, &inode)) {
        continue;
      }
      if ((inode.mode & kModeTypeMask) == kModeRegular && inode.nlink != links) {
        Problem("inode %llu nlink=%u but %u directory references",
                Ull(ino), inode.nlink, links);
      }
    }
  }

  // Walks a directory's entries block by block.  A corrupt size must not
  // turn the walk into a hang, so every step is O(1) per block: a hole
  // (all-zero entries) is skipped whole, the walk stops at the end of the
  // double-indirect range, and it stops after `held` mapped blocks, since a
  // directory never maps more blocks than it holds.
  void ScanDirectory(uint64_t ino, const DiskInode& inode, uint32_t held,
                     std::deque<uint64_t>* queue) {
    constexpr uint64_t kEntriesPerBlock = kBlockSize / kDirEntrySize;
    uint64_t entries = inode.size / kDirEntrySize;
    if (inode.size % kDirEntrySize != 0) {
      Problem("directory %llu size %llu not a multiple of the entry size",
              Ull(ino), Ull(inode.size));
    }
    bool saw_dot = false;
    bool saw_dotdot = false;
    uint32_t mapped = 0;
    uint8_t block_data[kBlockSize];
    auto raw_table = [&](uint32_t table) -> const uint8_t* {
      return ReadBlockRaw(table, block_data) ? block_data : nullptr;
    };
    for (uint64_t i = 0; i < entries;) {
      uint64_t fb = i / kEntriesPerBlock;
      if (fb >= kMapEnd) {
        Problem("directory %llu size %llu is past the block map's range",
                Ull(ino), Ull(inode.size));
        break;
      }
      uint32_t block = 0;
      uint64_t hole = 0;
      if (!MapFileBlock(inode, fb, raw_table, &block, &hole)) {
        Problem("directory %llu unreadable at entry %llu", Ull(ino), Ull(i));
        return;
      }
      if (block == 0) {
        i = std::min(entries, (fb + hole) * kEntriesPerBlock);
        continue;
      }
      if (++mapped > held) {
        Problem("directory %llu maps more than the %u blocks it holds", Ull(ino), held);
        break;
      }
      for (uint64_t end = std::min(entries, (fb + 1) * kEntriesPerBlock); i < end; ++i) {
        DiskDirEntry entry;
        if (!ReadBlockRaw(block, block_data)) {
          Problem("directory %llu unreadable at entry %llu", Ull(ino), Ull(i));
          return;
        }
        std::memcpy(&entry, block_data + (i % kEntriesPerBlock) * kDirEntrySize,
                    sizeof(entry));
        if (entry.ino == 0) {
          continue;
        }
        if (entry.name[kMaxNameLen] != '\0' ||
            entry.name_len != libc::Strlen(entry.name)) {
          Problem("directory %llu entry %llu has corrupt name", Ull(ino), Ull(i));
          continue;
        }
        if (libc::Strcmp(entry.name, ".") == 0) {
          saw_dot = true;
          if (entry.ino != ino) {
            Problem("directory %llu: '.' points to %llu", Ull(ino), Ull(entry.ino));
          }
          continue;
        }
        if (libc::Strcmp(entry.name, "..") == 0) {
          saw_dotdot = true;
          continue;
        }
        inode_links_[entry.ino] += 1;
        queue->push_back(entry.ino);
      }
    }
    if (!saw_dot || !saw_dotdot) {
      Problem("directory %llu missing '.' or '..'", Ull(ino));
    }
  }

  void CheckInodeTable() {
    uint64_t used = 0;
    for (uint64_t ino = 1; ino < sb_.inode_count; ++ino) {
      DiskInode inode;
      if (!ReadInodeRaw(ino, &inode)) {
        continue;
      }
      if ((inode.mode & kModeTypeMask) != kModeFree) {
        ++used;
      }
    }
    uint64_t expected_free = sb_.inode_count - 1 - used;  // ino 0 reserved
    if (sb_.free_inodes != expected_free) {
      Problem("superblock free_inodes=%u, table says %llu", sb_.free_inodes,
              Ull(expected_free));
    }
    if (used != report_.inodes_in_use) {
      Problem("%llu inodes allocated but %llu reachable from the root",
              Ull(used), Ull(report_.inodes_in_use));
    }
  }

  void CheckBitmap() {
    uint8_t block_data[kBlockSize];
    uint64_t bitmap_used = 0;
    for (uint32_t b = 0; b < sb_.total_blocks; ++b) {
      uint32_t bitmap_block = sb_.bitmap_start + b / (kBlockSize * 8);
      uint32_t bit = b % (kBlockSize * 8);
      if (bit == 0 || b == 0) {
        if (!ReadBlockRaw(bitmap_block, block_data)) {
          Problem("unreadable bitmap block %u", bitmap_block);
          return;
        }
      }
      bool marked = (block_data[bit / 8] & (1u << (bit % 8))) != 0;
      if (marked) {
        ++bitmap_used;
      }
      if (marked != block_seen_[b]) {
        Problem("block %u: bitmap=%d but tree-walk=%d", b, marked ? 1 : 0,
                block_seen_[b] ? 1 : 0);
      }
    }
    uint64_t expected_free = sb_.total_blocks - bitmap_used;
    if (sb_.free_blocks != expected_free) {
      Problem("superblock free_blocks=%u, bitmap says %llu", sb_.free_blocks,
              Ull(expected_free));
    }
  }

  BlkIo* device_;
  FsckOptions options_;
  SuperBlock sb_{};
  FsckReport report_;
  std::vector<bool> block_seen_;
  std::map<uint64_t, uint32_t> inode_links_;
};

}  // namespace

FsckReport Fsck(BlkIo* device, const FsckOptions& options) {
  return Checker(device, options).Run();
}

FsckReport Fsck(BlkIo* device) { return Fsck(device, FsckOptions{}); }

}  // namespace oskit::fs
