// "offs" — the FFS-style filesystem component (paper §3.8).
//
// Plays the role of the encapsulated NetBSD FFS: a real on-disk filesystem
// (src/fs/format.h) running over ANY BlkIo — the Linux-idiom IDE driver, a
// partition view, or a RAM disk — bound at run time (§4.2.2: "the client OS
// can bind at run time any file system to any device driver").  The exported
// COM interfaces take single pathname components, the granularity the secure
// fileserver case study depends on.

#ifndef OSKIT_SRC_FS_FFS_H_
#define OSKIT_SRC_FS_FFS_H_

#include <cstring>
#include <functional>
#include <memory>
#include <set>

#include "src/com/filesystem.h"
#include "src/fs/cache.h"
#include "src/fs/format.h"
#include "src/fs/journal.h"
#include "src/trace/trace.h"

namespace oskit::fs {

// Mkfs sizes the inode table at one inode per 8 data blocks.
struct MkfsOptions {
  // Journal region size in blocks.  kAutoJournal sizes it from the device
  // (and silently omits it on volumes too small to hold one); 0 formats
  // without a journal (the crash campaign's ablation mode); any other value
  // is used as given and must fit.
  static constexpr uint32_t kAutoJournal = 0xffffffff;
  uint32_t journal_blocks = kAutoJournal;
};

// Formats the device.  Destroys all content.
Error Mkfs(BlkIo* device, const MkfsOptions& options = {});

// Reads block 0 into *out and validates it: magic, version and block size,
// and a geometry whose regions (bitmap, inode table, data) lie in order
// inside a volume that fits the device.  kCorrupt otherwise, so mount and
// fsck only ever walk structures bounded by the image.
Error ReadSuperBlock(BlkIo* device, SuperBlock* out);

// File blocks the single-indirect and double-indirect tables end at.
inline constexpr uint64_t kIndirectEnd = kDirectBlocks + kPointersPerBlock;
inline constexpr uint64_t kMapEnd =
    kIndirectEnd + uint64_t{kPointersPerBlock} * kPointersPerBlock;

// Maps file block `fb` (< kMapEnd) through the inode's block map, read-only.
// `table(block)` returns a pointer table's bytes, or null when it cannot be
// read (then the result is false).  *block is the disk block, 0 for a hole;
// for a hole, *hole counts the file blocks from `fb` on that the same
// missing pointer leaves unmapped, so an absent table is one step.  Shared
// by the mounted directory walk (through the cache) and fsck (raw reads).
template <typename ReadTable>
bool MapFileBlock(const DiskInode& inode, uint64_t fb, ReadTable&& table,
                  uint32_t* block, uint64_t* hole) {
  auto read_slot = [&](uint32_t table_block, uint64_t slot, uint32_t* out) {
    const uint8_t* data = table(table_block);
    if (data != nullptr) {
      std::memcpy(out, data + slot * 4, 4);
    }
    return data != nullptr;
  };
  *block = 0;
  *hole = 1;
  if (fb < kDirectBlocks) {
    *block = inode.direct[fb];
    return true;
  }
  if (fb < kIndirectEnd) {
    if (inode.indirect == 0) {
      *hole = kIndirectEnd - fb;
      return true;
    }
    return read_slot(inode.indirect, fb - kDirectBlocks, block);
  }
  if (inode.double_indirect == 0) {
    *hole = kMapEnd - fb;
    return true;
  }
  uint64_t index = fb - kIndirectEnd;
  uint32_t mid = 0;
  if (!read_slot(inode.double_indirect, index / kPointersPerBlock, &mid)) {
    return false;
  }
  if (mid == 0) {
    *hole = kPointersPerBlock - index % kPointersPerBlock;
    return true;
  }
  return read_slot(mid, index % kPointersPerBlock, block);
}

struct MountOptions {
  // Observability environment for the cache and journal counters; null
  // binds the process-global default.
  trace::TraceEnv* trace = nullptr;
  // Replay the journal's commit chain before exposing the volume.  Off only
  // for tests that want to inspect the unreplayed image.
  bool replay_journal = true;
};

class Offs final : public ComObject<Offs, FileSystem> {
 public:
  // Mounts the filesystem; fails with kCorrupt when the superblock does not
  // validate.  Replays the metadata journal first (crash recovery), then
  // clears the clean flag on disk until Unmount.
  static Error Mount(BlkIo* device, FileSystem** out_fs);
  static Error Mount(BlkIo* device, const MountOptions& options,
                     FileSystem** out_fs);

  // FileSystem
  Error GetRoot(Dir** out_root) override;
  Error StatFs(FsStat* out_stat) override;
  Error Sync() override;
  Error Unmount() override;

  // ---- Internal operations used by the File/Dir wrappers ----
  Error ReadInode(uint64_t ino, DiskInode* out);
  Error WriteInode(uint64_t ino, const DiskInode& inode);
  Error AllocInode(uint16_t mode, uint64_t* out_ino);
  Error FreeInode(uint64_t ino);

  Error AllocBlock(uint32_t* out_block);
  Error FreeBlock(uint32_t block);

  // Maps file block index -> disk block; allocates missing blocks when
  // `alloc` (growing through single and double indirection).  A hole reads
  // as block 0 (callers substitute zeros).
  Error BMap(uint64_t ino, DiskInode* inode, uint32_t file_block, bool alloc,
             uint32_t* out_block);

  Error FileReadAt(uint64_t ino, void* buf, uint64_t offset, size_t amount,
                   size_t* out_actual);
  Error FileWriteAt(uint64_t ino, const void* buf, uint64_t offset, size_t amount,
                    size_t* out_actual);
  Error FileTruncate(uint64_t ino, uint64_t new_size);

  // Directory primitives (single components).
  Error DirLookup(uint64_t dir_ino, const char* name, uint64_t* out_ino);
  Error DirAdd(uint64_t dir_ino, const char* name, uint64_t ino, uint16_t type_bits);
  Error DirRemove(uint64_t dir_ino, const char* name);
  Error DirIsEmpty(uint64_t dir_ino, bool* out_empty);
  Error DirRead(uint64_t dir_ino, uint64_t* inout_offset, DirEntry* entries,
                size_t capacity, size_t* out_count);

  const SuperBlock& superblock() const { return sb_; }
  BlockCache& cache() { return *cache_; }
  uint64_t now() { return ++mtime_counter_; }
  bool unmounted() const { return unmounted_; }
  bool journaled() const { return journal_ != nullptr; }

  // Registered as "fs.journal.*" in the mount's trace environment.
  struct JournalCounters {
    trace::Counter commits;         // transactions written and flushed
    trace::Counter blocks_logged;   // block images across all commits
    trace::Counter overflows;       // batches too big: unjournaled fallback
    trace::Counter meta_ops;        // metadata operations noted
    trace::Counter replays;         // transactions redone at mount
    trace::Counter discarded_txns;  // torn transactions dropped at mount
  };
  const JournalCounters& journal_counters() const { return jcounters_; }

  // Called by the COM wrappers at each metadata-operation boundary: counts
  // the op and commits early when the open transaction nears the journal's
  // capacity (keeping every batch atomically commitable).
  Error NoteMetaOp();

  // Per-principal journal-transaction admission (src/secure).  `admit` runs
  // at the top of NoteMetaOp on journaled volumes, BEFORE the op's intent
  // blocks join the open transaction; a non-kOk return aborts the metadata
  // op with that error (the COM wrappers surface it unchanged).
  // `committed` runs each time the open transaction reaches the disk (or
  // drains empty) in Sync, so the accountant can credit outstanding
  // journal-txn charges.
  void SetMetaHooks(std::function<Error()> admit,
                    std::function<void()> committed) {
    meta_admit_ = std::move(admit);
    meta_committed_ = std::move(committed);
  }

  // ---- exposed for the File/Dir wrappers and white-box tests ----
  // MarkDirty for a METADATA block: also enlists it in the open journal
  // transaction (and thereby pins it against eviction until commit).
  void MetaDirty(uint32_t block);

 private:
  friend class RefCounted<Offs>;
  Offs(ComPtr<BlkIo> device, const SuperBlock& sb, trace::TraceEnv* trace);
  ~Offs();

  Error WriteSuperBlock();
  Error SetBitmapBit(uint32_t block, bool used);
  Error FindFreeBitmapBit(uint32_t* out_block);
  // Frees every data/indirect block at or beyond file block `from_fb`.
  Error TruncateBlocks(DiskInode* inode, uint32_t from_fb);

  ComPtr<BlkIo> device_;
  SuperBlock sb_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<JournalWriter> journal_;  // null on unjournaled volumes
  std::set<uint32_t> txn_blocks_;  // the open transaction's metadata blocks
  std::function<Error()> meta_admit_;      // see SetMetaHooks
  std::function<void()> meta_committed_;
  JournalCounters jcounters_;
  trace::CounterBlock jcounters_binding_;
  uint64_t mtime_counter_ = 0;
  bool unmounted_ = false;
  uint32_t alloc_cursor_ = 0;  // rotor for block allocation
};

}  // namespace oskit::fs

#endif  // OSKIT_SRC_FS_FFS_H_
