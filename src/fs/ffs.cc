#include "src/fs/ffs.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

#include "src/base/panic.h"
#include "src/libc/string.h"

namespace oskit::fs {

static_assert(std::endian::native == std::endian::little,
              "on-disk structures are stored little-endian via memcpy");

namespace {

constexpr uint64_t kEntriesPerBlock = kBlockSize / kDirEntrySize;

// The one directory walk under DirLookup, DirAdd, DirRemove, DirIsEmpty and
// DirRead.  It reads the inode once, maps each directory block once, and
// calls `visit(entry)` on the entries from slot `from` on, in place in the
// cached block; a hole is one call with a null entry for its first slot.
// `visit` must make no cache call, and returns true to stop.  *end is the
// slot after the one that stopped the walk, else the end of the directory.
// The work is bounded by the inode, not by its size field: a size past the
// block map's range is kCorrupt before any block is read, an absent pointer
// table is skipped in one step, and once the walk has visited as many
// blocks as the inode holds, the rest is one hole.
template <typename Visit>
Error WalkDir(Offs& fs, uint64_t dir_ino, uint64_t from, Visit&& visit, uint64_t* end) {
  *end = from;
  DiskInode dir;
  Error err = fs.ReadInode(dir_ino, &dir);
  if (!Ok(err)) {
    return err;
  }
  if ((dir.mode & kModeTypeMask) != kModeDirectory) {
    return Error::kNotDir;
  }
  uint64_t entries = dir.size / kDirEntrySize;
  if (entries > kMapEnd * kEntriesPerBlock) {
    return Error::kCorrupt;
  }
  auto cached_table = [&](uint32_t block) -> const uint8_t* {
    uint8_t* data = nullptr;
    err = fs.cache().Get(block, &data);
    return data;
  };
  uint32_t visited = 0;
  for (uint64_t i = from; i < entries; *end = i) {
    uint64_t fb = i / kEntriesPerBlock;
    uint32_t block = 0;
    uint64_t hole = kMapEnd - fb;
    if (visited < dir.blocks && !MapFileBlock(dir, fb, cached_table, &block, &hole)) {
      return err;
    }
    if (block == 0) {
      if (visit(nullptr)) {
        *end = i + 1;
        return Error::kOk;
      }
      i = std::min(entries, (fb + hole) * kEntriesPerBlock);
      continue;
    }
    ++visited;
    const uint8_t* data = cached_table(block);
    if (data == nullptr) {
      return err;
    }
    for (uint64_t stop = std::min(entries, (fb + 1) * kEntriesPerBlock); i < stop; ++i) {
      if (visit(data + (i % kEntriesPerBlock) * kDirEntrySize)) {
        *end = i + 1;
        return Error::kOk;
      }
    }
  }
  return Error::kOk;
}

uint64_t EntryIno(const uint8_t* entry) {
  uint64_t ino = 0;
  std::memcpy(&ino, entry + offsetof(DiskDirEntry, ino), sizeof(ino));
  return ino;
}

// Whether `entry` is live and named `name` (of length `len`), compared
// inside the name field, so an unterminated name on a corrupt disk stays in
// bounds.
bool EntryNamed(const uint8_t* entry, const char* name, size_t len) {
  return entry != nullptr && EntryIno(entry) != 0 && len <= kMaxNameLen &&
         std::memcmp(entry + offsetof(DiskDirEntry, name), name, len + 1) == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// mkfs
// ---------------------------------------------------------------------------

Error Mkfs(BlkIo* device, const MkfsOptions& options) {
  off_t64 device_bytes = 0;
  Error err = device->GetSize(&device_bytes);
  if (!Ok(err)) {
    return err;
  }
  uint32_t total_blocks = static_cast<uint32_t>(device_bytes / kBlockSize);
  if (total_blocks < 16) {
    return Error::kNoSpace;
  }

  SuperBlock sb;
  sb.total_blocks = total_blocks;
  sb.inode_count =
      (total_blocks / 8 + kInodesPerBlock) / kInodesPerBlock * kInodesPerBlock;
  sb.bitmap_start = 1;
  sb.bitmap_blocks = (total_blocks + kBlockSize * 8 - 1) / (kBlockSize * 8);
  sb.itable_start = sb.bitmap_start + sb.bitmap_blocks;
  sb.itable_blocks = (sb.inode_count + kInodesPerBlock - 1) / kInodesPerBlock;
  // Journal region between the inode table and the data area (still inside
  // the metadata zone fsck treats as implicitly in-use).
  uint32_t journal_blocks = options.journal_blocks;
  if (journal_blocks == MkfsOptions::kAutoJournal) {
    journal_blocks = total_blocks / 32;
    if (journal_blocks > 64) {
      journal_blocks = 64;
    }
    if (journal_blocks < kMinJournalBlocks) {
      journal_blocks = kMinJournalBlocks;
    }
    // A volume too small to afford a journal gets none rather than failing.
    if (sb.itable_start + sb.itable_blocks + journal_blocks + 4 >= total_blocks) {
      journal_blocks = 0;
    }
  } else if (journal_blocks != 0 && journal_blocks < kMinJournalBlocks) {
    return Error::kInval;
  }
  sb.journal_start = journal_blocks != 0 ? sb.itable_start + sb.itable_blocks : 0;
  sb.journal_blocks = journal_blocks;
  sb.data_start = sb.itable_start + sb.itable_blocks + journal_blocks;
  if (sb.data_start + 4 >= total_blocks) {
    return Error::kNoSpace;
  }
  sb.free_blocks = total_blocks - sb.data_start - 1;  // the root's block below
  sb.free_inodes = sb.inode_count - 2;  // ino 0 unused, ino 1 = root
  sb.clean = 1;

  std::vector<uint8_t> block(kBlockSize, 0);

  // Zero the metadata area.
  for (uint32_t b = 0; b < sb.data_start; ++b) {
    err = WriteBlockRaw(device, b, block.data());
    if (!Ok(err)) {
      return err;
    }
  }

  // Bitmap: metadata blocks and the root directory's first data block
  // (data_start) are "used".
  uint32_t root_block = sb.data_start;
  for (uint32_t b = 0; b <= root_block; ++b) {
    uint32_t bitmap_block = sb.bitmap_start + b / (kBlockSize * 8);
    uint32_t bit = b % (kBlockSize * 8);
    err = ReadBlockRaw(device, bitmap_block, block.data());
    if (!Ok(err)) {
      return err;
    }
    block[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    err = WriteBlockRaw(device, bitmap_block, block.data());
    if (!Ok(err)) {
      return err;
    }
  }

  // Root inode.
  DiskInode root;
  root.mode = kModeDirectory | 0755;
  root.nlink = 2;  // "." and the root's self-reference
  root.size = 2 * kDirEntrySize;
  root.direct[0] = root_block;
  root.blocks = 1;

  std::memset(block.data(), 0, kBlockSize);
  std::memcpy(block.data() + kRootIno * kInodeSize, &root, sizeof(root));
  err = WriteBlockRaw(device, sb.itable_start, block.data());
  if (!Ok(err)) {
    return err;
  }

  // Root directory data: "." and "..".
  std::memset(block.data(), 0, kBlockSize);
  auto* dot = reinterpret_cast<DiskDirEntry*>(block.data());
  dot->ino = kRootIno;
  dot->type = kModeDirectory >> 12;
  dot->name_len = 1;
  libc::Strcpy(dot->name, ".");
  auto* dotdot = reinterpret_cast<DiskDirEntry*>(block.data() + kDirEntrySize);
  dotdot->ino = kRootIno;
  dotdot->type = kModeDirectory >> 12;
  dotdot->name_len = 2;
  libc::Strcpy(dotdot->name, "..");
  err = WriteBlockRaw(device, root_block, block.data());
  if (!Ok(err)) {
    return err;
  }

  // Journal superblock (the region itself was zeroed by the metadata sweep
  // above, so no stale transaction from a previous life can ever replay).
  if (sb.journal_blocks != 0) {
    err = JournalFormat(device, sb);
    if (!Ok(err)) {
      return err;
    }
  }

  // Superblock last (a crash mid-mkfs leaves no valid magic).
  std::memset(block.data(), 0, kBlockSize);
  std::memcpy(block.data(), &sb, sizeof(sb));
  return WriteBlockRaw(device, 0, block.data());
}

// ---------------------------------------------------------------------------
// Mount / superblock
// ---------------------------------------------------------------------------

Error ReadSuperBlock(BlkIo* device, SuperBlock* out) {
  uint8_t block[kBlockSize];
  size_t actual = 0;
  Error err = device->Read(block, 0, kBlockSize, &actual);
  if (!Ok(err)) {
    return err;
  }
  if (actual != kBlockSize) {
    return Error::kCorrupt;
  }
  std::memcpy(out, block, sizeof(*out));
  if (out->magic != kFsMagic || out->version != kFsVersion ||
      out->block_size != kBlockSize) {
    return Error::kCorrupt;
  }
  off_t64 device_bytes = 0;
  uint64_t total = out->total_blocks;
  bool fits = Ok(device->GetSize(&device_bytes)) && total * kBlockSize <= device_bytes &&
              out->bitmap_start >= 1 &&
              uint64_t{out->bitmap_blocks} * kBlockSize * 8 >= total &&
              uint64_t{out->bitmap_start} + out->bitmap_blocks <= out->itable_start &&
              uint64_t{out->itable_start} + out->itable_blocks <= out->data_start &&
              out->data_start <= total &&
              out->inode_count <= uint64_t{out->itable_blocks} * kInodesPerBlock;
  return fits ? Error::kOk : Error::kCorrupt;
}

Offs::Offs(ComPtr<BlkIo> device, const SuperBlock& sb, trace::TraceEnv* trace)
    : device_(std::move(device)), sb_(sb) {
  cache_ = std::make_unique<BlockCache>(device_, kBlockSize, 256, trace);
  alloc_cursor_ = sb_.data_start;
  trace::TraceEnv* tenv = trace::ResolveTraceEnv(trace);
  jcounters_binding_.Bind(&tenv->registry,
                          {{"fs.journal.commits", &jcounters_.commits},
                           {"fs.journal.blocks_logged", &jcounters_.blocks_logged},
                           {"fs.journal.overflows", &jcounters_.overflows},
                           {"fs.journal.meta_ops", &jcounters_.meta_ops},
                           {"fs.journal.replays", &jcounters_.replays},
                           {"fs.journal.discarded_txns",
                            &jcounters_.discarded_txns}});
}

Offs::~Offs() = default;

Error Offs::Mount(BlkIo* device, FileSystem** out_fs) {
  return Mount(device, MountOptions{}, out_fs);
}

Error Offs::Mount(BlkIo* device, const MountOptions& options, FileSystem** out_fs) {
  *out_fs = nullptr;
  SuperBlock sb;
  Error err = ReadSuperBlock(device, &sb);
  if (!Ok(err)) {
    return err;
  }
  JournalReplayStats replay_stats;
  if (sb.journal_blocks >= kMinJournalBlocks && options.replay_journal) {
    err = JournalReplay(device, sb, /*apply=*/true, &replay_stats);
    if (!Ok(err)) {
      return err;
    }
    // Block 0 may itself have been a replay target; trust the redone image.
    err = ReadSuperBlock(device, &sb);
    if (!Ok(err)) {
      return err;
    }
  }
  auto* fs = new Offs(ComPtr<BlkIo>::Retain(device), sb, options.trace);
  if (sb.journal_blocks >= kMinJournalBlocks) {
    fs->journal_ = std::make_unique<JournalWriter>(fs->device_, sb.journal_start,
                                                   sb.journal_blocks, options.trace);
    err = fs->journal_->Load();
    if (!Ok(err)) {
      fs->Release();
      return err;
    }
    fs->jcounters_.replays += replay_stats.replayed_txns;
    fs->jcounters_.discarded_txns += replay_stats.discarded_txns;
    fs->cache_->SetEvictionPin(
        [fs](uint32_t block) { return fs->txn_blocks_.count(block) != 0; });
  }
  // Mark dirty-on-disk until a clean unmount (what fsck keys off).
  fs->sb_.clean = 0;
  err = fs->Sync();
  if (!Ok(err)) {
    fs->Release();
    return err;
  }
  *out_fs = fs;
  return Error::kOk;
}

Error Offs::WriteSuperBlock() {
  uint8_t* data = nullptr;
  Error err = cache_->Get(0, &data);
  if (!Ok(err)) {
    return err;
  }
  std::memset(data, 0, kBlockSize);
  std::memcpy(data, &sb_, sizeof(sb_));
  MetaDirty(0);
  return Error::kOk;
}

void Offs::MetaDirty(uint32_t block) {
  cache_->MarkDirty(block);
  if (journal_) {
    txn_blocks_.insert(block);
  }
}

Error Offs::NoteMetaOp() {
  ++jcounters_.meta_ops;
  if (journal_ == nullptr) {
    return Error::kOk;
  }
  if (meta_admit_) {
    // Per-principal admission before any intent write: denial aborts the
    // metadata op here, with nothing yet enlisted in the transaction.
    Error err = meta_admit_();
    if (!Ok(err)) {
      return err;
    }
  }
  // Commit early at operation boundaries so the open transaction always
  // fits the journal: the batch so far is consistent, the next op starts a
  // fresh one.
  uint32_t soft_limit = journal_->capacity() / 2;
  if (soft_limit > 24) {
    soft_limit = 24;
  }
  if (soft_limit < 1) {
    soft_limit = 1;
  }
  if (txn_blocks_.size() >= soft_limit) {
    return Sync();
  }
  return Error::kOk;
}

Error Offs::StatFs(FsStat* out_stat) {
  out_stat->block_size = kBlockSize;
  out_stat->total_blocks = sb_.total_blocks;
  out_stat->free_blocks = sb_.free_blocks;
  out_stat->total_inodes = sb_.inode_count;
  out_stat->free_inodes = sb_.free_inodes;
  return Error::kOk;
}

Error Offs::Sync() {
  Error err = WriteSuperBlock();
  if (!Ok(err)) {
    return err;
  }
  if (journal_ == nullptr) {
    // Unjournaled (ablation) path: ordered writeback and one barrier.  The
    // writeback itself is not atomic — exactly the weakness the crash
    // campaign's ablation phase demonstrates.
    err = cache_->Sync();
    if (!Ok(err)) {
      return err;
    }
    return cache_->Barrier();
  }

  // Phase 1: non-transaction (file data) blocks to their home locations,
  // ascending, made durable before any metadata referencing them commits.
  for (uint32_t block : cache_->CollectDirty()) {
    if (txn_blocks_.count(block) != 0) {
      continue;
    }
    err = cache_->WriteBackOne(block);
    if (!Ok(err)) {
      return err;
    }
  }
  err = cache_->Barrier();
  if (!Ok(err)) {
    return err;
  }
  if (txn_blocks_.empty()) {
    if (meta_committed_) {
      meta_committed_();  // admitted ops that dirtied nothing still settle
    }
    return Error::kOk;
  }

  std::vector<uint32_t> targets(txn_blocks_.begin(), txn_blocks_.end());
  if (targets.size() > journal_->capacity()) {
    // The batch outgrew the journal: fall back to a plain barriered
    // writeback.  Not atomic, but counted, so campaigns can prove the
    // fallback never fires on their workloads.
    ++jcounters_.overflows;
    txn_blocks_.clear();
    if (meta_committed_) {
      meta_committed_();
    }
    err = cache_->Sync();
    if (!Ok(err)) {
      return err;
    }
    return cache_->Barrier();
  }

  // Phase 2: the write-ahead commit (images + header + commit + flush).
  // The transaction stays pinned until the commit record is durable; only
  // then may home locations be overwritten.
  err = journal_->Commit(targets, [this](uint32_t block, uint8_t* out) {
    uint8_t* data = nullptr;
    Error e = cache_->Get(block, &data);
    if (!Ok(e)) {
      return e;
    }
    std::memcpy(out, data, kBlockSize);
    return Error::kOk;
  });
  if (!Ok(err)) {
    return err;
  }
  ++jcounters_.commits;
  jcounters_.blocks_logged += targets.size();
  txn_blocks_.clear();
  if (meta_committed_) {
    meta_committed_();
  }

  // Phase 3: home-location writeback (ascending) behind the commit barrier.
  for (uint32_t block : targets) {
    err = cache_->WriteBackOne(block);
    if (!Ok(err)) {
      return err;
    }
  }
  err = cache_->Barrier();
  if (!Ok(err)) {
    return err;
  }

  // Phase 4: lazily retire the transaction.  A stale checkpoint only means
  // replay redoes idempotent work.
  return journal_->Checkpoint();
}

Error Offs::Unmount() {
  if (unmounted_) {
    return Error::kOk;
  }
  sb_.clean = 1;
  Error err = Sync();
  if (!Ok(err)) {
    return err;
  }
  unmounted_ = true;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// Inode table
// ---------------------------------------------------------------------------

Error Offs::ReadInode(uint64_t ino, DiskInode* out) {
  if (ino == 0 || ino >= sb_.inode_count) {
    return Error::kInval;
  }
  uint32_t block = sb_.itable_start + static_cast<uint32_t>(ino / kInodesPerBlock);
  uint8_t* data = nullptr;
  Error err = cache_->Get(block, &data);
  if (!Ok(err)) {
    return err;
  }
  std::memcpy(out, data + (ino % kInodesPerBlock) * kInodeSize, sizeof(DiskInode));
  return Error::kOk;
}

Error Offs::WriteInode(uint64_t ino, const DiskInode& inode) {
  if (ino == 0 || ino >= sb_.inode_count) {
    return Error::kInval;
  }
  uint32_t block = sb_.itable_start + static_cast<uint32_t>(ino / kInodesPerBlock);
  uint8_t* data = nullptr;
  Error err = cache_->Get(block, &data);
  if (!Ok(err)) {
    return err;
  }
  std::memcpy(data + (ino % kInodesPerBlock) * kInodeSize, &inode, sizeof(DiskInode));
  MetaDirty(block);
  return Error::kOk;
}

Error Offs::AllocInode(uint16_t mode, uint64_t* out_ino) {
  if (sb_.free_inodes == 0) {
    return Error::kNoSpace;
  }
  for (uint64_t ino = 2; ino < sb_.inode_count; ++ino) {
    DiskInode inode;
    Error err = ReadInode(ino, &inode);
    if (!Ok(err)) {
      return err;
    }
    if ((inode.mode & kModeTypeMask) == kModeFree) {
      inode = DiskInode{};
      inode.mode = mode;
      inode.nlink = 0;
      inode.mtime = now();
      err = WriteInode(ino, inode);
      if (!Ok(err)) {
        return err;
      }
      --sb_.free_inodes;
      *out_ino = ino;
      return Error::kOk;
    }
  }
  return Error::kNoSpace;
}

Error Offs::FreeInode(uint64_t ino) {
  DiskInode inode;
  Error err = ReadInode(ino, &inode);
  if (!Ok(err)) {
    return err;
  }
  err = TruncateBlocks(&inode, 0);
  if (!Ok(err)) {
    return err;
  }
  inode = DiskInode{};
  err = WriteInode(ino, inode);
  if (!Ok(err)) {
    return err;
  }
  ++sb_.free_inodes;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// Block allocation
// ---------------------------------------------------------------------------

Error Offs::SetBitmapBit(uint32_t block, bool used) {
  uint32_t bitmap_block = sb_.bitmap_start + block / (kBlockSize * 8);
  uint32_t bit = block % (kBlockSize * 8);
  uint8_t* data = nullptr;
  Error err = cache_->Get(bitmap_block, &data);
  if (!Ok(err)) {
    return err;
  }
  uint8_t mask = static_cast<uint8_t>(1u << (bit % 8));
  bool was_used = (data[bit / 8] & mask) != 0;
  if (used == was_used) {
    return Error::kUnexpected;  // double alloc / double free
  }
  if (used) {
    data[bit / 8] |= mask;
  } else {
    data[bit / 8] &= static_cast<uint8_t>(~mask);
  }
  MetaDirty(bitmap_block);
  return Error::kOk;
}

Error Offs::FindFreeBitmapBit(uint32_t* out_block) {
  // Rotor scan from the last allocation point.
  uint32_t total = sb_.total_blocks;
  uint32_t start = alloc_cursor_;
  for (uint32_t i = 0; i < total; ++i) {
    uint32_t block = start + i;
    if (block >= total) {
      block = sb_.data_start + (block - total) % (total - sb_.data_start);
    }
    if (block < sb_.data_start) {
      continue;
    }
    uint32_t bitmap_block = sb_.bitmap_start + block / (kBlockSize * 8);
    uint32_t bit = block % (kBlockSize * 8);
    uint8_t* data = nullptr;
    Error err = cache_->Get(bitmap_block, &data);
    if (!Ok(err)) {
      return err;
    }
    if ((data[bit / 8] & (1u << (bit % 8))) == 0) {
      *out_block = block;
      alloc_cursor_ = block + 1;
      return Error::kOk;
    }
  }
  return Error::kNoSpace;
}

Error Offs::AllocBlock(uint32_t* out_block) {
  if (sb_.free_blocks == 0) {
    return Error::kNoSpace;
  }
  uint32_t block = 0;
  Error err = FindFreeBitmapBit(&block);
  if (!Ok(err)) {
    return err;
  }
  err = SetBitmapBit(block, true);
  if (!Ok(err)) {
    return err;
  }
  --sb_.free_blocks;
  err = cache_->ZeroBlock(block);
  if (!Ok(err)) {
    return err;
  }
  *out_block = block;
  return Error::kOk;
}

Error Offs::FreeBlock(uint32_t block) {
  if (block < sb_.data_start || block >= sb_.total_blocks) {
    return Error::kInval;
  }
  Error err = SetBitmapBit(block, false);
  if (!Ok(err)) {
    return err;
  }
  ++sb_.free_blocks;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// Block mapping (direct, single and double indirect)
// ---------------------------------------------------------------------------

Error Offs::BMap(uint64_t ino, DiskInode* inode, uint32_t file_block, bool alloc,
                 uint32_t* out_block) {
  *out_block = 0;
  if (file_block >= kMapEnd) {
    return Error::kFBig;
  }
  bool inode_dirty = false;
  // Resolves one pointer into *ptr: the inode field *ptr itself when `table`
  // is 0, else slot `index` of pointer table `table`.  A zero pointer gets
  // a fresh block when `alloc` (and stays a hole otherwise).
  auto step = [&](uint32_t table, uint64_t index, uint32_t* ptr) -> Error {
    uint8_t* data = nullptr;
    if (table != 0) {
      Error err = cache_->Get(table, &data);
      if (!Ok(err)) {
        return err;
      }
      std::memcpy(ptr, data + index * 4, 4);
    }
    if (*ptr != 0 || !alloc) {
      return Error::kOk;
    }
    Error err = AllocBlock(ptr);
    if (!Ok(err)) {
      return err;
    }
    inode->blocks += 1;
    inode_dirty = true;
    if (table == 0) {
      return Error::kOk;
    }
    err = cache_->Get(table, &data);  // AllocBlock's cache calls may move it
    if (!Ok(err)) {
      return err;
    }
    std::memcpy(data + index * 4, ptr, 4);
    MetaDirty(table);  // indirect blocks are metadata
    return Error::kOk;
  };

  Error err = Error::kOk;
  uint32_t mid = 0;
  if (file_block < kDirectBlocks) {
    err = step(0, 0, &inode->direct[file_block]);
    *out_block = inode->direct[file_block];
  } else if (file_block < kIndirectEnd) {
    err = step(0, 0, &inode->indirect);
    if (Ok(err) && inode->indirect != 0) {
      err = step(inode->indirect, file_block - kDirectBlocks, out_block);
    }
  } else {
    uint64_t index = file_block - kIndirectEnd;
    err = step(0, 0, &inode->double_indirect);
    if (Ok(err) && inode->double_indirect != 0) {
      err = step(inode->double_indirect, index / kPointersPerBlock, &mid);
    }
    if (Ok(err) && mid != 0) {
      err = step(mid, index % kPointersPerBlock, out_block);
    }
  }
  if (!Ok(err)) {
    return err;
  }
  if (inode_dirty) {
    return WriteInode(ino, *inode);
  }
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// File read / write / truncate
// ---------------------------------------------------------------------------

Error Offs::FileReadAt(uint64_t ino, void* buf, uint64_t offset, size_t amount,
                       size_t* out_actual) {
  *out_actual = 0;
  DiskInode inode;
  Error err = ReadInode(ino, &inode);
  if (!Ok(err)) {
    return err;
  }
  if (offset >= inode.size) {
    return Error::kOk;  // EOF
  }
  err = ClampRange(inode.size, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  auto* out = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < amount) {
    uint32_t fb = static_cast<uint32_t>((offset + done) / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>((offset + done) % kBlockSize);
    size_t n = kBlockSize - in_block;
    if (n > amount - done) {
      n = amount - done;
    }
    uint32_t block = 0;
    err = BMap(ino, &inode, fb, /*alloc=*/false, &block);
    if (!Ok(err)) {
      return err;
    }
    if (block == 0) {
      std::memset(out + done, 0, n);  // hole
    } else {
      uint8_t* data = nullptr;
      err = cache_->Get(block, &data);
      if (!Ok(err)) {
        return err;
      }
      std::memcpy(out + done, data + in_block, n);
    }
    done += n;
  }
  *out_actual = done;
  return Error::kOk;
}

Error Offs::FileWriteAt(uint64_t ino, const void* buf, uint64_t offset, size_t amount,
                        size_t* out_actual) {
  *out_actual = 0;
  DiskInode inode;
  Error err = ReadInode(ino, &inode);
  if (!Ok(err)) {
    return err;
  }
  // A write grows the file, so only a wrapping range is refused.
  err = ClampRange(~uint64_t{0}, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  // Directory contents are metadata: a half-applied dirent write is exactly
  // the orphan/corruption class the journal exists to prevent.  Regular
  // file data stays outside the transaction (ordered mode).
  bool is_dir = (inode.mode & kModeTypeMask) == kModeDirectory;
  const auto* in = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < amount) {
    uint32_t fb = static_cast<uint32_t>((offset + done) / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>((offset + done) % kBlockSize);
    size_t n = kBlockSize - in_block;
    if (n > amount - done) {
      n = amount - done;
    }
    uint32_t block = 0;
    err = BMap(ino, &inode, fb, /*alloc=*/true, &block);
    if (!Ok(err)) {
      return err;
    }
    OSKIT_ASSERT(block != 0);
    uint8_t* data = nullptr;
    err = cache_->Get(block, &data);
    if (!Ok(err)) {
      return err;
    }
    std::memcpy(data + in_block, in + done, n);
    if (is_dir) {
      MetaDirty(block);
    } else {
      cache_->MarkDirty(block);
    }
    done += n;
  }
  if (done > 0 || offset > inode.size) {
    // Reload: BMap may have stored the inode with new block pointers.
    err = ReadInode(ino, &inode);
    if (!Ok(err)) {
      return err;
    }
    inode.size = std::max<uint64_t>(inode.size, offset + done);
    inode.mtime = now();
    err = WriteInode(ino, inode);
    if (!Ok(err)) {
      return err;
    }
  }
  *out_actual = done;
  return Error::kOk;
}

Error Offs::TruncateBlocks(DiskInode* inode, uint32_t from_fb) {
  // Frees all data blocks with index >= from_fb plus any indirect blocks
  // that become empty.  Called with the inode NOT yet written back.
  auto free_if = [&](uint32_t* slot) -> Error {
    if (*slot != 0) {
      Error err = FreeBlock(*slot);
      if (!Ok(err)) {
        return err;
      }
      *slot = 0;
      inode->blocks -= 1;
    }
    return Error::kOk;
  };

  for (uint32_t fb = from_fb; fb < kDirectBlocks; ++fb) {
    Error err = free_if(&inode->direct[fb]);
    if (!Ok(err)) {
      return err;
    }
  }

  // Single indirect.
  if (inode->indirect != 0) {
    uint32_t first = from_fb > kDirectBlocks ? from_fb - kDirectBlocks : 0;
    if (first < kPointersPerBlock) {
      uint8_t* data = nullptr;
      Error err = cache_->Get(inode->indirect, &data);
      if (!Ok(err)) {
        return err;
      }
      bool any_left = false;
      for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
        uint32_t slot = 0;
        std::memcpy(&slot, data + i * 4, 4);
        if (i >= first && slot != 0) {
          err = FreeBlock(slot);
          if (!Ok(err)) {
            return err;
          }
          slot = 0;
          std::memcpy(data + i * 4, &slot, 4);
          MetaDirty(inode->indirect);
          inode->blocks -= 1;
        } else if (slot != 0) {
          any_left = true;
        }
      }
      if (!any_left) {
        err = free_if(&inode->indirect);
        if (!Ok(err)) {
          return err;
        }
      }
    }
  }

  // Double indirect.
  if (inode->double_indirect != 0) {
    uint32_t base = kDirectBlocks + kPointersPerBlock;
    uint32_t first = from_fb > base ? from_fb - base : 0;
    uint8_t* outer_data = nullptr;
    Error err = cache_->Get(inode->double_indirect, &outer_data);
    if (!Ok(err)) {
      return err;
    }
    bool outer_any_left = false;
    for (uint32_t o = 0; o < kPointersPerBlock; ++o) {
      uint32_t mid = 0;
      std::memcpy(&mid, outer_data + o * 4, 4);
      if (mid == 0) {
        continue;
      }
      uint32_t mid_base = o * kPointersPerBlock;
      if (mid_base + kPointersPerBlock <= first) {
        outer_any_left = true;
        continue;  // entirely below the cut
      }
      uint8_t* mid_data = nullptr;
      err = cache_->Get(mid, &mid_data);
      if (!Ok(err)) {
        return err;
      }
      bool mid_any_left = false;
      for (uint32_t i = 0; i < kPointersPerBlock; ++i) {
        uint32_t slot = 0;
        std::memcpy(&slot, mid_data + i * 4, 4);
        if (slot == 0) {
          continue;
        }
        if (mid_base + i >= first) {
          err = FreeBlock(slot);
          if (!Ok(err)) {
            return err;
          }
          slot = 0;
          std::memcpy(mid_data + i * 4, &slot, 4);
          MetaDirty(mid);
          inode->blocks -= 1;
        } else {
          mid_any_left = true;
        }
      }
      if (!mid_any_left) {
        err = FreeBlock(mid);
        if (!Ok(err)) {
          return err;
        }
        inode->blocks -= 1;
        uint32_t zero = 0;
        // Re-fetch the outer block: freeing `mid` may have evicted it.
        err = cache_->Get(inode->double_indirect, &outer_data);
        if (!Ok(err)) {
          return err;
        }
        std::memcpy(outer_data + o * 4, &zero, 4);
        MetaDirty(inode->double_indirect);
      } else {
        outer_any_left = true;
      }
    }
    if (!outer_any_left) {
      err = free_if(&inode->double_indirect);
      if (!Ok(err)) {
        return err;
      }
    }
  }
  return Error::kOk;
}

Error Offs::FileTruncate(uint64_t ino, uint64_t new_size) {
  DiskInode inode;
  Error err = ReadInode(ino, &inode);
  if (!Ok(err)) {
    return err;
  }
  if (new_size < inode.size) {
    uint32_t keep_blocks = static_cast<uint32_t>((new_size + kBlockSize - 1) / kBlockSize);
    err = TruncateBlocks(&inode, keep_blocks);
    if (!Ok(err)) {
      return err;
    }
    // Zero the tail of the last kept block so re-extension reads zeros.
    if (new_size % kBlockSize != 0) {
      uint32_t block = 0;
      err = BMap(ino, &inode, keep_blocks - 1, /*alloc=*/false, &block);
      if (!Ok(err)) {
        return err;
      }
      if (block != 0) {
        uint8_t* data = nullptr;
        err = cache_->Get(block, &data);
        if (!Ok(err)) {
          return err;
        }
        std::memset(data + new_size % kBlockSize, 0,
                    kBlockSize - new_size % kBlockSize);
        // Journaled even though it is file data: the zeroing must land
        // atomically with the size change, or a replayed truncate could
        // expose stale bytes on re-extension.
        MetaDirty(block);
      }
    }
  }
  inode.size = new_size;
  inode.mtime = now();
  return WriteInode(ino, inode);
}

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

Error Offs::DirLookup(uint64_t dir_ino, const char* name, uint64_t* out_ino) {
  size_t len = libc::Strlen(name);
  uint64_t found = 0;
  uint64_t end = 0;
  Error err = WalkDir(*this, dir_ino, 0, [&](const uint8_t* entry) {
    found = EntryNamed(entry, name, len) ? EntryIno(entry) : 0;
    return found != 0;
  }, &end);
  if (!Ok(err)) {
    return err;
  }
  if (found == 0) {
    return Error::kNoEnt;
  }
  *out_ino = found;
  return Error::kOk;
}

Error Offs::DirAdd(uint64_t dir_ino, const char* name, uint64_t ino,
                   uint16_t type_bits) {
  DiskDirEntry entry;
  entry.ino = ino;
  entry.type = static_cast<uint8_t>(type_bits >> 12);
  entry.name_len = static_cast<uint8_t>(libc::Strlen(name));
  libc::Strlcpy(entry.name, name, sizeof(entry.name));

  // Reuse the first empty slot (a hole's are empty), else append.
  bool reuse = false;
  uint64_t end = 0;
  Error err = WalkDir(*this, dir_ino, 0, [&](const uint8_t* slot) {
    reuse = slot == nullptr || EntryIno(slot) == 0;
    return reuse;
  }, &end);
  if (!Ok(err)) {
    return err;
  }
  size_t actual = 0;
  return FileWriteAt(dir_ino, &entry, (end - (reuse ? 1 : 0)) * kDirEntrySize,
                     kDirEntrySize, &actual);
}

Error Offs::DirRemove(uint64_t dir_ino, const char* name) {
  size_t len = libc::Strlen(name);
  bool found = false;
  uint64_t end = 0;
  Error err = WalkDir(*this, dir_ino, 0, [&](const uint8_t* entry) {
    found = EntryNamed(entry, name, len);
    return found;
  }, &end);
  if (!Ok(err) || !found) {
    return Ok(err) ? Error::kNoEnt : err;
  }
  DiskDirEntry empty;
  size_t actual = 0;
  return FileWriteAt(dir_ino, &empty, (end - 1) * kDirEntrySize, kDirEntrySize, &actual);
}

Error Offs::DirIsEmpty(uint64_t dir_ino, bool* out_empty) {
  bool other = false;
  uint64_t end = 0;
  Error err = WalkDir(*this, dir_ino, 0, [&](const uint8_t* entry) {
    other = entry != nullptr && EntryIno(entry) != 0 && !EntryNamed(entry, ".", 1) &&
            !EntryNamed(entry, "..", 2);
    return other;
  }, &end);
  *out_empty = !other;
  return err;
}

Error Offs::DirRead(uint64_t dir_ino, uint64_t* inout_offset, DirEntry* entries,
                    size_t capacity, size_t* out_count) {
  *out_count = 0;
  if (capacity == 0) {
    return Error::kOk;
  }
  uint64_t end = 0;
  Error err = WalkDir(*this, dir_ino, *inout_offset, [&](const uint8_t* slot) {
    if (slot == nullptr || EntryIno(slot) == 0) {
      return false;
    }
    DiskDirEntry raw;
    std::memcpy(&raw, slot, sizeof(raw));
    raw.name[kMaxNameLen] = '\0';  // a corrupt name may be unterminated
    DirEntry& out = entries[(*out_count)++];
    out.ino = raw.ino;
    out.type = (static_cast<uint16_t>(raw.type) << 12) == kModeDirectory
                   ? FileType::kDirectory
                   : FileType::kRegular;
    libc::Strlcpy(out.name, raw.name, sizeof(out.name));
    return *out_count == capacity;
  }, &end);
  if (Ok(err)) {
    *inout_offset = end;
  }
  return err;
}

}  // namespace oskit::fs
