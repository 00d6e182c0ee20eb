// Write-ahead journal tests: on-disk format and replay edge cases against a
// RAM device (torn commits, idempotent redo, wraparound), then end-to-end
// crash recovery through the full stack — IDE driver, volatile disk write
// cache, seeded power cuts — including the ablation run that shows what the
// journal is for (an unjournaled volume corrupts under the same cuts).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/aio/stack.h"
#include "src/base/digest.h"
#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/fs/journal.h"

namespace oskit::fs {
namespace {

// Reads the on-disk superblock the way fsread does: straight off block 0.
SuperBlock ReadSuper(BlkIo* device) {
  std::vector<uint8_t> block(kBlockSize);
  size_t actual = 0;
  EXPECT_EQ(Error::kOk, device->Read(block.data(), 0, kBlockSize, &actual));
  SuperBlock sb;
  std::memcpy(&sb, block.data(), sizeof(sb));
  return sb;
}

void WriteRawBlock(BlkIo* device, uint32_t block, const void* data) {
  size_t actual = 0;
  ASSERT_EQ(Error::kOk,
            device->Write(data, static_cast<off_t64>(block) * kBlockSize,
                          kBlockSize, &actual));
}

std::vector<uint8_t> ReadRawBlock(BlkIo* device, uint32_t block) {
  std::vector<uint8_t> data(kBlockSize);
  size_t actual = 0;
  EXPECT_EQ(Error::kOk,
            device->Read(data.data(), static_cast<off_t64>(block) * kBlockSize,
                         kBlockSize, &actual));
  return data;
}

TEST(JournalFormatTest, MkfsSizesJournalAutomatically) {
  auto disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, Mkfs(disk.get()));
  SuperBlock sb = ReadSuper(disk.get());
  EXPECT_GE(sb.journal_blocks, kMinJournalBlocks);
  EXPECT_GE(sb.journal_start, sb.itable_start);
  EXPECT_LE(sb.journal_start + sb.journal_blocks, sb.data_start);

  // Explicit zero formats the ablation volume.
  MkfsOptions none;
  none.journal_blocks = 0;
  ASSERT_EQ(Error::kOk, Mkfs(disk.get(), none));
  EXPECT_EQ(0u, ReadSuper(disk.get()).journal_blocks);

  // A region too small to hold even one transaction is rejected.
  MkfsOptions tiny;
  tiny.journal_blocks = 2;
  EXPECT_EQ(Error::kInval, Mkfs(disk.get(), tiny));
}

// Fixture for the writer/replay format tests: a freshly journaled RAM volume
// plus a JournalWriter loaded onto it.
class JournalWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = MemBlkIo::Create(4 * 1024 * 1024, 512);
    Format(MkfsOptions{});
  }

  void Format(const MkfsOptions& options) {
    ASSERT_EQ(Error::kOk, Mkfs(disk_.get(), options));
    sb_ = ReadSuper(disk_.get());
    writer_ = std::make_unique<JournalWriter>(
        ComPtr<BlkIo>::Retain(disk_.get()), sb_.journal_start, sb_.journal_blocks,
        &tenv_);
    ASSERT_EQ(Error::kOk, writer_->Load());
  }

  // Commits one single-block transaction filling `target` with `fill`.
  void CommitFill(uint32_t target, uint8_t fill) {
    ASSERT_EQ(Error::kOk,
              writer_->Commit({target}, [fill](uint32_t, uint8_t* out) {
                std::memset(out, fill, kBlockSize);
                return Error::kOk;
              }));
  }

  trace::TraceEnv tenv_;
  ComPtr<MemBlkIo> disk_;
  SuperBlock sb_;
  std::unique_ptr<JournalWriter> writer_;
};

TEST_F(JournalWriterTest, CommitThenReplayAppliesImages) {
  uint32_t target = sb_.data_start + 3;
  CommitFill(target, 0x77);
  // The commit wrote only the journal; the home block is untouched.
  EXPECT_EQ(std::vector<uint8_t>(kBlockSize, 0), ReadRawBlock(disk_.get(), target));

  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
  EXPECT_TRUE(stats.journal_present);
  EXPECT_EQ(1u, stats.replayed_txns);
  EXPECT_EQ(1u, stats.replayed_blocks);
  EXPECT_EQ(0u, stats.discarded_txns);
  EXPECT_EQ(std::vector<uint8_t>(kBlockSize, 0x77),
            ReadRawBlock(disk_.get(), target));

  // Replay advanced the checkpoint: a second pass finds nothing pending.
  JournalReplayStats again;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &again));
  EXPECT_EQ(0u, again.replayed_txns);
}

TEST_F(JournalWriterTest, TornCommitRecordIsDiscardedNotReplayed) {
  uint32_t target = sb_.data_start + 5;
  uint32_t pos = writer_->next_pos();
  CommitFill(target, 0x55);

  // Tear the transaction's commit record (header at pos, image at pos+1,
  // commit at pos+2): one flipped byte must invalidate the whole thing.
  uint32_t commit_block = sb_.journal_start + pos + 2;
  std::vector<uint8_t> raw = ReadRawBlock(disk_.get(), commit_block);
  raw[offsetof(TxnCommit, checksum)] ^= 0xff;
  WriteRawBlock(disk_.get(), commit_block, raw.data());

  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
  EXPECT_EQ(0u, stats.replayed_txns);
  EXPECT_EQ(1u, stats.discarded_txns);
  EXPECT_EQ(std::vector<uint8_t>(kBlockSize, 0), ReadRawBlock(disk_.get(), target));

  // fsck's read-only journal walk reports the same discard and the volume
  // itself stays consistent — the torn transaction never happened.
  FsckReport report = Fsck(disk_.get());
  EXPECT_TRUE(report.consistent);
  EXPECT_TRUE(report.journal_present);
  EXPECT_EQ(1u, report.journal_discarded_txns);
}

TEST_F(JournalWriterTest, TornImageInvalidatesPayloadChecksum) {
  uint32_t target = sb_.data_start + 6;
  uint32_t pos = writer_->next_pos();
  CommitFill(target, 0x66);

  // Corrupt one sector of the logged image (a dropped sector in the
  // journal region itself).
  uint32_t image_block = sb_.journal_start + pos + 1;
  std::vector<uint8_t> raw = ReadRawBlock(disk_.get(), image_block);
  std::memset(raw.data() + 512, 0, 512);
  WriteRawBlock(disk_.get(), image_block, raw.data());

  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
  EXPECT_EQ(0u, stats.replayed_txns);
  EXPECT_EQ(1u, stats.discarded_txns);
  EXPECT_EQ(std::vector<uint8_t>(kBlockSize, 0), ReadRawBlock(disk_.get(), target));
}

// Changing any one 8-byte word of a committed transaction's header, images
// or commit block voids it: replay applies nothing and counts a discard.
// Only the header's magic word reads as free space instead, the clean end
// of the chain.  Three images make the payload one stream over blocks.
TEST_F(JournalWriterTest, AnyChangedWordVoidsTheTransaction) {
  const std::vector<uint32_t> targets = {sb_.data_start + 1, sb_.data_start + 2,
                                         sb_.data_start + 3};
  uint32_t pos = writer_->next_pos();
  ASSERT_EQ(Error::kOk, writer_->Commit(targets, [](uint32_t target, uint8_t* out) {
    for (size_t i = 0; i < kBlockSize; ++i) {
      out[i] = static_cast<uint8_t>(target * 7 + i);
    }
    return Error::kOk;
  }));
  const std::vector<uint8_t> zeros(kBlockSize, 0);
  Rng rng(0x3107);
  // Header at pos, the images after it, the commit record last.
  for (uint32_t b = 0; b < targets.size() + 2; ++b) {
    uint32_t block = sb_.journal_start + pos + b;
    const std::vector<uint8_t> good = ReadRawBlock(disk_.get(), block);
    for (size_t word = 0; word < kBlockSize / 8; ++word) {
      std::vector<uint8_t> bad = good;
      uint64_t value = 0;
      std::memcpy(&value, bad.data() + 8 * word, 8);
      value ^= rng.Next() | 1;
      std::memcpy(bad.data() + 8 * word, &value, 8);
      WriteRawBlock(disk_.get(), block, bad.data());

      JournalReplayStats stats;
      ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
      bool header_magic = b == 0 && word == 0;
      ASSERT_EQ(0u, stats.replayed_txns) << "block " << b << " word " << word;
      ASSERT_EQ(header_magic ? 0u : 1u, stats.discarded_txns)
          << "block " << b << " word " << word;
      for (uint32_t target : targets) {
        ASSERT_EQ(zeros, ReadRawBlock(disk_.get(), target))
            << "block " << b << " word " << word;
      }
    }
    WriteRawBlock(disk_.get(), block, good.data());
  }
  // Restored, the transaction replays whole.
  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
  EXPECT_EQ(1u, stats.replayed_txns);
  EXPECT_EQ(3u, stats.replayed_blocks);
}

// A version-1 journal superblock is kCorrupt to mount (with and without
// replay) and to fsck, whether it carries the FNV-1a checksum version 1
// wrote or a checksum valid under the current digest.
TEST_F(JournalWriterTest, VersionOneJournalIsRefused) {
  auto fnv1a = [](const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < len; ++i) {
      hash = (hash ^ p[i]) * 0x100000001b3ull;
    }
    return hash;
  };
  JournalSuper jsb;
  jsb.region_blocks = sb_.journal_blocks;
  const size_t covered = offsetof(JournalSuper, checksum);
  auto store = [&] {
    std::vector<uint8_t> block(kBlockSize, 0);
    std::memcpy(block.data(), &jsb, sizeof(jsb));
    WriteRawBlock(disk_.get(), sb_.journal_start, block.data());
  };
  jsb.version = 1;
  for (bool v1_checksum : {true, false}) {
    SCOPED_TRACE(v1_checksum ? "FNV-1a checksum" : "current checksum");
    jsb.checksum = v1_checksum ? fnv1a(&jsb, covered) : IntegrityDigestOf(&jsb, covered);
    store();
    JournalReplayStats stats;
    EXPECT_EQ(Error::kCorrupt, JournalReplay(disk_.get(), sb_, /*apply=*/false, &stats));
    for (bool replay : {true, false}) {
      MountOptions options;
      options.trace = &tenv_;
      options.replay_journal = replay;
      FileSystem* fs = nullptr;
      EXPECT_EQ(Error::kCorrupt, Offs::Mount(disk_.get(), options, &fs));
      EXPECT_EQ(nullptr, fs);
    }
    FsckReport report = Fsck(disk_.get());
    EXPECT_FALSE(report.consistent);
    EXPECT_NE(report.problems.end(),
              std::find(report.problems.begin(), report.problems.end(),
                        "journal superblock failed validation"));
  }
  // The same record at the current version validates.
  jsb.version = kJournalVersion;
  jsb.checksum = IntegrityDigestOf(&jsb, covered);
  store();
  JournalReplayStats stats;
  EXPECT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/false, &stats));
  EXPECT_TRUE(Fsck(disk_.get()).consistent);
}

TEST_F(JournalWriterTest, ReplayIsIdempotent) {
  CommitFill(sb_.data_start + 1, 0x11);
  CommitFill(sb_.data_start + 2, 0x22);

  // Save the pre-replay checkpoint so the chain can be walked twice — the
  // double-crash scenario (power fails again mid-recovery).
  std::vector<uint8_t> jsb = ReadRawBlock(disk_.get(), sb_.journal_start);

  JournalReplayStats first;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &first));
  EXPECT_EQ(2u, first.replayed_txns);
  std::vector<uint8_t> after_first(disk_->data(), disk_->data() + disk_->size());

  WriteRawBlock(disk_.get(), sb_.journal_start, jsb.data());
  JournalReplayStats second;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &second));
  EXPECT_EQ(2u, second.replayed_txns);
  std::vector<uint8_t> after_second(disk_->data(), disk_->data() + disk_->size());
  EXPECT_EQ(after_first, after_second);
}

// Forwards to a RAM device and counts the block reads that touch
// [first, first + count).
class ReadCountingBlkIo final : public ComObject<ReadCountingBlkIo, BlkIo> {
 public:
  ReadCountingBlkIo(ComPtr<MemBlkIo> inner, uint32_t first, uint32_t count)
      : inner_(std::move(inner)), first_(first), count_(count) {}

  uint32_t GetBlockSize() override { return inner_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    for (off_t64 block = offset / kBlockSize; block * kBlockSize < offset + amount;
         ++block) {
      reads += block >= first_ && block < first_ + count_;
    }
    return inner_->Read(buf, offset, amount, out_actual);
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    return inner_->Write(buf, offset, amount, out_actual);
  }
  Error GetSize(off_t64* out_size) override { return inner_->GetSize(out_size); }

  uint32_t reads = 0;

 private:
  friend class RefCounted<ReadCountingBlkIo>;
  ~ReadCountingBlkIo() = default;

  ComPtr<MemBlkIo> inner_;
  uint32_t first_;
  uint32_t count_;
};

// Replay applies the images it read to check the payload digest: an n-image
// transaction costs its header, its commit record and each image once.
TEST_F(JournalWriterTest, ReplayReadsEachImageOnce) {
  const std::vector<uint32_t> targets = {sb_.data_start + 1, sb_.data_start + 2,
                                         sb_.data_start + 3};
  uint32_t pos = writer_->next_pos();
  ASSERT_EQ(Error::kOk, writer_->Commit(targets, [](uint32_t target, uint8_t* out) {
    std::memset(out, static_cast<int>(target), kBlockSize);
    return Error::kOk;
  }));
  ComPtr<ReadCountingBlkIo> counting(new ReadCountingBlkIo(
      disk_, sb_.journal_start + pos, static_cast<uint32_t>(targets.size()) + 2));

  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(counting.get(), sb_, /*apply=*/true, &stats));
  EXPECT_EQ(1u, stats.replayed_txns);
  EXPECT_EQ(5u, counting->reads);
  for (uint32_t target : targets) {
    EXPECT_EQ(std::vector<uint8_t>(kBlockSize, static_cast<uint8_t>(target)),
              ReadRawBlock(disk_.get(), target));
  }
}

// Forwards to a RAM device and logs every block write, and every flush as
// kFlushed, in the order the device sees them; a write to a block listed in
// `failing` returns kIo.  It grants no BlkIoRing.
class WriteLoggingBlkIo final
    : public ComObject<WriteLoggingBlkIo, BlkIo, BlkIoBarrier> {
 public:
  static constexpr int64_t kFlushed = -1;

  explicit WriteLoggingBlkIo(ComPtr<MemBlkIo> inner) : inner_(std::move(inner)) {}

  uint32_t GetBlockSize() override { return inner_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    return inner_->Read(buf, offset, amount, out_actual);
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    EXPECT_EQ(kBlockSize, amount);
    log.push_back(offset / kBlockSize);
    if (std::count(failing.begin(), failing.end(), log.back()) != 0) {
      *out_actual = 0;
      return Error::kIo;
    }
    return inner_->Write(buf, offset, amount, out_actual);
  }
  Error GetSize(off_t64* out_size) override { return inner_->GetSize(out_size); }
  Error Flush() override {
    log.push_back(kFlushed);
    return Error::kOk;
  }

  std::vector<int64_t> log;
  std::vector<int64_t> failing;

 private:
  friend class RefCounted<WriteLoggingBlkIo>;
  ~WriteLoggingBlkIo() = default;

  ComPtr<MemBlkIo> inner_;
};

// A device without a ring commits through the sync adapter and sees each
// image once, in ascending journal order, then the header, the commit record
// and the barrier.  The crash campaign's cut indices count on this order.
TEST_F(JournalWriterTest, RinglessDeviceSeesImagesInJournalOrder) {
  MkfsOptions options;
  options.journal_blocks = 80;  // room for a batch past the adapter's depth
  Format(options);
  ComPtr<WriteLoggingBlkIo> logging(new WriteLoggingBlkIo(disk_));
  ASSERT_FALSE(ComPtr<BlkIoRing>::FromQuery(logging.get()));
  JournalWriter writer(ComPtr<BlkIo>::FromQuery(logging.get()), sb_.journal_start,
                       sb_.journal_blocks, &tenv_);
  ASSERT_EQ(Error::kOk, writer.Load());

  // Targets out of order: the journal lays images out in target-list order.
  std::vector<uint32_t> targets;
  for (uint32_t i = 0; i < aio::SyncRingAdapter::kRingDepth + 6; ++i) {
    targets.push_back(sb_.data_start + (i * 7) % 90);
  }
  ASSERT_LE(targets.size(), writer.capacity());
  uint32_t pos = writer.next_pos();
  ASSERT_EQ(Error::kOk, writer.Commit(targets, [](uint32_t target, uint8_t* out) {
    std::memset(out, static_cast<int>(target), kBlockSize);
    return Error::kOk;
  }));

  const uint32_t n = static_cast<uint32_t>(targets.size());
  const int64_t at = sb_.journal_start + pos;
  std::vector<int64_t> want;
  for (uint32_t i = 0; i < n; ++i) {
    want.push_back(at + 1 + i);
  }
  want.insert(want.end(), {at, at + 1 + n, WriteLoggingBlkIo::kFlushed});
  EXPECT_EQ(want, logging->log);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::vector<uint8_t>(kBlockSize, static_cast<uint8_t>(targets[i])),
              ReadRawBlock(disk_.get(), static_cast<uint32_t>(at + 1 + i)));
  }
}

// The adapter wrapped around a ring-less device counts into the mount's
// trace environment, next to the journal's own counters.
TEST(JournalMountTest, RinglessDeviceCountsSyncSqesInTheMountsRegistry) {
  auto disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  ASSERT_FALSE(ComPtr<BlkIoRing>::FromQuery(disk.get()));
  ASSERT_EQ(Error::kOk, Mkfs(disk.get()));
  trace::TraceEnv tenv;
  MountOptions options;
  options.trace = &tenv;
  FileSystem* raw = nullptr;
  ASSERT_EQ(Error::kOk, Offs::Mount(disk.get(), options, &raw));
  ComPtr<FileSystem> fs(raw);
  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root->Create("f", 0644, f.Receive()));
  ASSERT_EQ(Error::kOk, fs->Sync());
  EXPECT_GT(tenv.registry.Value("fs.journal.commits"), 0u);
  EXPECT_GT(tenv.registry.Value("aio.ring.sync_sqes"), 0u);
  f.Reset();
  root.Reset();
  ASSERT_EQ(Error::kOk, fs->Unmount());
}

// A failed image fails its own commit only: the batch's other completions,
// failed ones among them, are reaped with it rather than left in the ring
// for the next commit to take as its own.
TEST_F(JournalWriterTest, FailedImageFailsOnlyItsOwnCommit) {
  MkfsOptions options;
  options.journal_blocks = 80;
  Format(options);
  ComPtr<WriteLoggingBlkIo> logging(new WriteLoggingBlkIo(disk_));
  JournalWriter writer(ComPtr<BlkIo>::FromQuery(logging.get()), sb_.journal_start,
                       sb_.journal_blocks, &tenv_);
  ASSERT_EQ(Error::kOk, writer.Load());
  auto fill = [](uint32_t target, uint8_t* out) {
    std::memset(out, static_cast<int>(target), kBlockSize);
    return Error::kOk;
  };
  std::vector<uint32_t> targets;
  for (uint32_t i = 0; i < 40; ++i) {
    targets.push_back(sb_.data_start + i);
  }
  const uint32_t pos = writer.next_pos();
  const int64_t at = sb_.journal_start + pos;
  for (int64_t block = at + 3; block <= at + 40; ++block) {
    logging->failing.push_back(block);  // every image from the third on
  }
  EXPECT_EQ(Error::kIo, writer.Commit(targets, fill));
  EXPECT_EQ(pos, writer.next_pos());

  logging->failing.clear();
  ASSERT_EQ(Error::kOk, writer.Commit({sb_.data_start + 50}, fill));
  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
  EXPECT_EQ(1u, stats.replayed_txns);
  EXPECT_EQ(1u, stats.replayed_blocks);
}

TEST_F(JournalWriterTest, WraparoundNeverReplaysAcrossTheBoundary) {
  // The smallest legal region wraps on every transaction after the first,
  // forcing the flushed pre-wrap checkpoint each time.
  MkfsOptions options;
  options.journal_blocks = 6;
  Format(options);
  uint32_t target = sb_.data_start + 9;
  for (uint8_t fill = 1; fill <= 5; ++fill) {
    CommitFill(target, fill);
  }
  // Only the post-checkpoint tail of the chain replays: the last commit.
  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
  EXPECT_EQ(1u, stats.replayed_txns);
  EXPECT_EQ(0u, stats.discarded_txns);
  EXPECT_EQ(std::vector<uint8_t>(kBlockSize, 5), ReadRawBlock(disk_.get(), target));

  // Overflowing the tiny region's capacity is refused, not wedged.
  std::vector<uint32_t> too_many;
  for (uint32_t i = 0; i < writer_->capacity() + 1; ++i) {
    too_many.push_back(sb_.data_start + i);
  }
  EXPECT_EQ(Error::kNoSpace,
            writer_->Commit(too_many, [](uint32_t, uint8_t* out) {
              std::memset(out, 0, kBlockSize);
              return Error::kOk;
            }));
}

TEST_F(JournalWriterTest, ExactFitTransactionParksCheckpointAtRegionEnd) {
  // A transaction whose commit record lands on the last region block leaves
  // next_pos == region_blocks: a legal "wrap pending" checkpoint that every
  // consumer (replay, fsck, a fresh writer) must accept, not flag as corrupt.
  MkfsOptions options;
  options.journal_blocks = 6;  // capacity 3: a 3-block txn fills pos 1..5
  Format(options);
  std::vector<uint32_t> targets = {sb_.data_start + 1, sb_.data_start + 2,
                                   sb_.data_start + 3};
  ASSERT_EQ(Error::kOk,
            writer_->Commit(targets, [](uint32_t target, uint8_t* out) {
              std::memset(out, static_cast<uint8_t>(target), kBlockSize);
              return Error::kOk;
            }));

  // Replay applies the exact-fit transaction and retires the checkpoint to
  // the region boundary.
  JournalReplayStats stats;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &stats));
  EXPECT_EQ(1u, stats.replayed_txns);
  EXPECT_EQ(3u, stats.replayed_blocks);
  for (uint32_t target : targets) {
    EXPECT_EQ(std::vector<uint8_t>(kBlockSize, static_cast<uint8_t>(target)),
              ReadRawBlock(disk_.get(), target));
  }

  // The boundary checkpoint loads cleanly and reads as an empty chain.
  JournalReplayStats again;
  ASSERT_EQ(Error::kOk, JournalReplay(disk_.get(), sb_, /*apply=*/true, &again));
  EXPECT_EQ(0u, again.replayed_txns);
  EXPECT_EQ(0u, again.discarded_txns);

  // A fresh writer accepts it too, and its next commit wraps back to pos 1.
  JournalWriter reopened(ComPtr<BlkIo>::Retain(disk_.get()), sb_.journal_start,
                         sb_.journal_blocks, &tenv_);
  ASSERT_EQ(Error::kOk, reopened.Load());
  uint32_t target = sb_.data_start + 7;
  ASSERT_EQ(Error::kOk, reopened.Commit({target}, [](uint32_t, uint8_t* out) {
    std::memset(out, 0x5a, kBlockSize);
    return Error::kOk;
  }));
  JournalReplayStats wrapped;
  ASSERT_EQ(Error::kOk,
            JournalReplay(disk_.get(), sb_, /*apply=*/true, &wrapped));
  EXPECT_EQ(1u, wrapped.replayed_txns);
  EXPECT_EQ(std::vector<uint8_t>(kBlockSize, 0x5a),
            ReadRawBlock(disk_.get(), target));
}

// ---------------------------------------------------------------------------
// End-to-end crash recovery through the IDE driver and the volatile write
// cache (the journal_test-sized slice of what bench/crash_campaign sweeps).
// ---------------------------------------------------------------------------

struct CrashRun {
  std::vector<uint8_t> image;                 // post-cut raw disk image
  std::map<std::string, std::string> acked;   // synced before the cut
  bool cut_fired = false;
};

// Mkfs + mount on the IDE driver with the write cache on, sync a base state,
// then arm a power cut and keep doing metadata work until it fires.
CrashRun RunCutWorkload(bool journaled, uint64_t arm_writes,
                        DiskHw::CutPolicy policy, uint64_t seed) {
  Simulation sim;
  Machine machine(&sim, {});
  KernelEnv kernel(&machine, MultiBootInfo{});
  machine.cpu().EnableInterrupts();
  FdevEnv fdev = DefaultFdevEnv(&kernel);
  DiskHw* disk = machine.AddDisk(4 * 1024 * 1024 / 512);
  DeviceRegistry registry;
  EXPECT_EQ(Error::kOk, linuxdev::InitLinuxIde(fdev, &machine, &registry));
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());
  CrashRun run;
  sim.Spawn("workload", [&] {
    MkfsOptions mkfs;
    mkfs.journal_blocks = journaled ? MkfsOptions::kAutoJournal : 0;
    ASSERT_EQ(Error::kOk, Mkfs(blkio.get(), mkfs));
    disk->EnableWriteCache(true);
    FileSystem* raw = nullptr;
    ASSERT_EQ(Error::kOk, Offs::Mount(blkio.get(), {.trace = &kernel.trace()}, &raw));
    ComPtr<FileSystem> fs(raw);
    ComPtr<Dir> root;
    ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));

    for (int i = 0; i < 8; ++i) {
      std::string name = "f" + std::to_string(i);
      std::string content = "acked-" + std::to_string(i * 1013);
      ComPtr<File> f;
      ASSERT_EQ(Error::kOk, root->Create(name.c_str(), 0644, f.Receive()));
      size_t actual = 0;
      ASSERT_EQ(Error::kOk,
                f->Write(content.data(), 0, content.size(), &actual));
      run.acked[name] = content;
    }
    ASSERT_EQ(Error::kOk, fs->Sync());

    // Everything from here on is at risk and allowed to fail.
    disk->ArmPowerCut(arm_writes, policy, seed);
    for (int i = 0; i < 20; ++i) {
      std::string name = "g" + std::to_string(i);
      ComPtr<File> f;
      if (!Ok(root->Create(name.c_str(), 0644, f.Receive()))) {
        break;
      }
      size_t actual = 0;
      f->Write(name.data(), 0, name.size(), &actual);
    }
    fs->Sync();  // fails mid-way once the cut fires: that is the point
  });
  EXPECT_EQ(Simulation::RunResult::kAllDone, sim.Run());
  run.cut_fired = disk->powered_off();
  run.image.assign(disk->raw().data(), disk->raw().data() + disk->raw_size());
  return run;
}

TEST(CrashRecoveryTest, PowerCutThenReplayPreservesAckedData) {
  trace::TraceEnv tenv;
  const DiskHw::CutPolicy policies[] = {
      DiskHw::CutPolicy::kDropAll, DiskHw::CutPolicy::kDropSubset,
      DiskHw::CutPolicy::kReorder, DiskHw::CutPolicy::kTear};
  int fired = 0;
  for (uint64_t arm : {1u, 3u, 7u, 12u}) {
    for (const DiskHw::CutPolicy policy : policies) {
      CrashRun run = RunCutWorkload(/*journaled=*/true, arm, policy,
                                    /*seed=*/arm * 31 + 7);
      if (!run.cut_fired) {
        continue;
      }
      ++fired;
      auto post = MemBlkIo::CreateFrom(run.image.data(), run.image.size(), 512);
      FsckOptions fsck_options;
      fsck_options.replay_journal = true;
      FsckReport report = Fsck(post.get(), fsck_options);
      EXPECT_TRUE(report.superblock_valid);
      for (const std::string& p : report.problems) {
        ADD_FAILURE() << "arm=" << arm << " policy=" << static_cast<int>(policy)
                      << " fsck: " << p;
      }
      // Every byte acknowledged by the pre-cut Sync must still be there.
      FileSystem* raw = nullptr;
      ASSERT_EQ(Error::kOk, Offs::Mount(post.get(), {.trace = &tenv}, &raw));
      ComPtr<FileSystem> fs(raw);
      ComPtr<Dir> root;
      ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
      for (const auto& [name, content] : run.acked) {
        ComPtr<File> f;
        ASSERT_EQ(Error::kOk, root->Lookup(name.c_str(), f.Receive()))
            << "synced file " << name << " lost";
        std::string readback(content.size(), '\0');
        size_t actual = 0;
        ASSERT_EQ(Error::kOk,
                  f->Read(readback.data(), 0, readback.size(), &actual));
        EXPECT_EQ(content, readback) << "synced file " << name << " corrupted";
      }
      root.Reset();
      ASSERT_EQ(Error::kOk, fs->Unmount());
    }
  }
  EXPECT_GT(fired, 0) << "no run ever reached its cut point";
}

TEST(CrashRecoveryTest, AblationUnjournaledVolumeCorruptsUnderTheSameCuts) {
  // The same cuts against a journal-free volume must corrupt it at least
  // once — otherwise the campaign's consistency assertions prove nothing.
  int inconsistent = 0;
  int fired = 0;
  for (uint64_t arm = 1; arm <= 10; ++arm) {
    CrashRun run = RunCutWorkload(/*journaled=*/false, arm,
                                  DiskHw::CutPolicy::kDropSubset,
                                  /*seed=*/arm * 17 + 1);
    if (!run.cut_fired) {
      continue;
    }
    ++fired;
    auto post = MemBlkIo::CreateFrom(run.image.data(), run.image.size(), 512);
    FsckReport report = Fsck(post.get());
    if (!report.consistent) {
      ++inconsistent;
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_GT(inconsistent, 0)
      << "dropping random unflushed metadata never corrupted the volume; "
         "the detector (or the cut model) is broken";
}

}  // namespace
}  // namespace oskit::fs
