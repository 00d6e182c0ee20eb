#include "src/fs/journal.h"

#include <array>
#include <cstring>

#include "src/aio/stack.h"
#include "src/base/digest.h"
#include "src/base/panic.h"

namespace oskit::fs {

Error ReadBlockRaw(BlkIo* device, uint32_t block, void* out) {
  size_t actual = 0;
  Error err = device->Read(out, static_cast<off_t64>(block) * kBlockSize,
                           kBlockSize, &actual);
  return Ok(err) && actual != kBlockSize ? Error::kIo : err;
}

Error WriteBlockRaw(BlkIo* device, uint32_t block, const void* data) {
  size_t actual = 0;
  Error err = device->Write(data, static_cast<off_t64>(block) * kBlockSize,
                            kBlockSize, &actual);
  return Ok(err) && actual != kBlockSize ? Error::kIo : err;
}

namespace {

static_assert(offsetof(TxnCommit, checksum) + sizeof(uint64_t) == sizeof(TxnCommit),
              "the commit checksum is the record's last field");

uint64_t JsbChecksum(const JournalSuper& jsb) {
  return IntegrityDigestOf(&jsb, offsetof(JournalSuper, checksum));
}

// Covers the header block and every word of the commit block but the
// checksum itself, so one changed word in either voids the transaction.
uint64_t CommitChecksum(const uint8_t* header_block, const uint8_t* commit_block) {
  IntegrityDigest digest;
  digest.Add(header_block, kBlockSize);
  digest.Add(commit_block, offsetof(TxnCommit, checksum));
  digest.Add(commit_block + sizeof(TxnCommit), kBlockSize - sizeof(TxnCommit));
  return digest.Finish();
}

Error LoadJsb(BlkIo* device, uint32_t journal_start, uint32_t region_blocks,
              JournalSuper* out) {
  uint8_t block[kBlockSize];
  Error err = ReadBlockRaw(device, journal_start, block);
  if (!Ok(err)) {
    return err;
  }
  std::memcpy(out, block, sizeof(*out));
  // next_pos == region_blocks is legal: a transaction that ended exactly at
  // the region boundary leaves the checkpoint parked there until the next
  // Commit wraps it back to 1 (ReadTxnAt reads it as a clean end of chain).
  if (out->magic != kJournalMagic || out->version != kJournalVersion ||
      out->region_blocks != region_blocks || out->checksum != JsbChecksum(*out) ||
      out->next_pos < 1 || out->next_pos > region_blocks || out->next_seq == 0) {
    return Error::kCorrupt;
  }
  return Error::kOk;
}

Error StoreJsb(BlkIo* device, uint32_t journal_start, JournalSuper* jsb) {
  jsb->checksum = JsbChecksum(*jsb);
  uint8_t block[kBlockSize] = {};
  std::memcpy(block, jsb, sizeof(*jsb));
  return WriteBlockRaw(device, journal_start, block);
}

// One parsed, validated transaction.  Replay reuses one view across the
// chain, so `images` keeps its capacity.
struct TxnView {
  TxnHeader header;
  std::vector<uint32_t> targets;
  std::vector<std::array<uint8_t, kBlockSize>> images;  // as digested
};

// Reads the transaction candidate at region block `pos`, expecting `seq`.
// kOk: valid.  kNoEnt: no candidate (stop quietly).  kCorrupt: a candidate
// header that fails validation (counts as a discard).
Error ReadTxnAt(BlkIo* device, const SuperBlock& sb, uint32_t pos, uint64_t seq,
                TxnView* out) {
  uint32_t region = sb.journal_blocks;
  // 64-bit arithmetic: `pos + 2` (and the n_blocks check below) must not
  // wrap in uint32 when a scribbled superblock or header supplies huge
  // values — the same unsigned-wrap class as the byte-range IO surfaces.
  if (pos < 1 || static_cast<uint64_t>(pos) + 2 > region) {
    return Error::kNoEnt;
  }
  uint8_t header_block[kBlockSize];
  Error err = ReadBlockRaw(device, sb.journal_start + pos, header_block);
  if (!Ok(err)) {
    return err;
  }
  TxnHeader header;
  std::memcpy(&header, header_block, sizeof(header));
  if (header.magic != kTxnHeaderMagic) {
    return Error::kNoEnt;  // free space or an old lap's payload: end of chain
  }
  if (header.seq != seq || header.n_blocks == 0 ||
      header.n_blocks > kMaxTxnTargets ||
      static_cast<uint64_t>(pos) + 2 + header.n_blocks > region) {
    return Error::kCorrupt;
  }
  uint8_t commit_block[kBlockSize];
  err = ReadBlockRaw(device, sb.journal_start + pos + 1 + header.n_blocks,
                     commit_block);
  if (!Ok(err)) {
    return err;
  }
  TxnCommit commit;
  std::memcpy(&commit, commit_block, sizeof(commit));
  if (commit.magic != kTxnCommitMagic || commit.seq != seq ||
      commit.n_blocks != header.n_blocks ||
      commit.checksum != CommitChecksum(header_block, commit_block)) {
    return Error::kCorrupt;  // torn or never-completed commit
  }
  // Header and commit agree; now the images must match the header's digest.
  IntegrityDigest payload;
  out->images.resize(header.n_blocks);
  for (uint32_t i = 0; i < header.n_blocks; ++i) {
    err = ReadBlockRaw(device, sb.journal_start + pos + 1 + i,
                       out->images[i].data());
    if (!Ok(err)) {
      return err;
    }
    payload.Add(out->images[i].data(), kBlockSize);
  }
  if (payload.Finish() != header.payload_checksum) {
    return Error::kCorrupt;
  }
  out->header = header;
  out->targets.resize(header.n_blocks);
  std::memcpy(out->targets.data(), header_block + sizeof(TxnHeader),
              header.n_blocks * sizeof(uint32_t));
  for (uint32_t target : out->targets) {
    if (target >= sb.total_blocks) {
      return Error::kCorrupt;
    }
  }
  return Error::kOk;
}

}  // namespace

Error JournalFormat(BlkIo* device, const SuperBlock& sb) {
  OSKIT_ASSERT(sb.journal_blocks >= kMinJournalBlocks);
  JournalSuper jsb;
  jsb.region_blocks = sb.journal_blocks;
  return StoreJsb(device, sb.journal_start, &jsb);
}

Error JournalReplay(BlkIo* device, const SuperBlock& sb, bool apply,
                    JournalReplayStats* stats) {
  *stats = JournalReplayStats{};
  if (sb.journal_blocks < kMinJournalBlocks) {
    return Error::kOk;  // ablation mode: no journal on this volume
  }
  JournalSuper jsb;
  Error err = LoadJsb(device, sb.journal_start, sb.journal_blocks, &jsb);
  if (!Ok(err)) {
    return err;
  }
  stats->journal_present = true;

  uint32_t pos = jsb.next_pos;
  uint64_t seq = jsb.next_seq;
  TxnView txn;
  for (;;) {
    err = ReadTxnAt(device, sb, pos, seq, &txn);
    if (err == Error::kNoEnt) {
      break;  // clean end of chain
    }
    if (err == Error::kCorrupt) {
      // A torn transaction is discarded, never partially applied — and
      // nothing after it can have committed (each commit is flushed before
      // the next transaction starts), so the chain ends here.
      ++stats->discarded_txns;
      break;
    }
    if (!Ok(err)) {
      return err;
    }
    if (apply) {
      for (uint32_t i = 0; i < txn.header.n_blocks; ++i) {
        err = WriteBlockRaw(device, txn.targets[i], txn.images[i].data());
        if (!Ok(err)) {
          return err;
        }
      }
    }
    stats->replayed_blocks += txn.header.n_blocks;
    ++stats->replayed_txns;
    pos += txn.header.n_blocks + 2;
    ++seq;
  }

  if (apply && stats->replayed_txns > 0) {
    // Make the redone metadata durable, then retire the chain so a second
    // crash replays nothing stale.
    ComPtr<BlkIoBarrier> barrier = ComPtr<BlkIoBarrier>::FromQuery(device);
    auto flush = [&barrier] { return barrier ? barrier->Flush() : Error::kOk; };
    jsb.next_pos = pos;
    jsb.next_seq = seq;
    err = flush();
    if (Ok(err)) {
      err = StoreJsb(device, sb.journal_start, &jsb);
    }
    if (Ok(err)) {
      err = flush();
    }
    return err;
  }
  return Error::kOk;
}

JournalWriter::JournalWriter(ComPtr<BlkIo> device, uint32_t journal_start,
                             uint32_t journal_blocks, trace::TraceEnv* trace)
    : device_(std::move(device)), start_(journal_start), region_(journal_blocks) {
  OSKIT_ASSERT(region_ >= kMinJournalBlocks);
  barrier_ = ComPtr<BlkIoBarrier>::FromQuery(device_.get());
  ring_ = ComPtr<BlkIoRing>::FromQuery(device_.get());
  if (!ring_) {
    ring_ = ComPtr<BlkIoRing>::FromQuery(
        aio::SyncRingAdapter::Wrap(device_.get(), trace).get());
  }
}

Error JournalWriter::Load() {
  JournalSuper jsb;
  Error err = LoadJsb(device_.get(), start_, region_, &jsb);
  if (!Ok(err)) {
    return err;
  }
  next_pos_ = jsb.next_pos;
  next_seq_ = jsb.next_seq;
  return Error::kOk;
}

uint32_t JournalWriter::capacity() const {
  uint32_t by_region = region_ - 3;  // jsb, header, commit
  return by_region < kMaxTxnTargets ? by_region : kMaxTxnTargets;
}

Error JournalWriter::WriteRaw(uint32_t region_block, const void* data) {
  return WriteBlockRaw(device_.get(), start_ + region_block, data);
}

Error JournalWriter::WriteImages(
    const std::vector<uint32_t>& targets,
    const std::function<Error(uint32_t, uint8_t*)>& read_block,
    uint64_t* out_payload_checksum) {
  uint32_t n = static_cast<uint32_t>(targets.size());
  IntegrityDigest payload;

  // Stage every image, then hand the ring the whole run as one tagged
  // submission batch.  The images land between barriers — the commit
  // record's checksums tolerate any ordering the ring picks — and a
  // contiguous run lets a scheduling device merge them into few controller
  // round trips; the sync adapter writes them in ascending order.  SQE
  // buffers must stay valid until reaped, hence one flat arena.
  std::vector<uint8_t> images(static_cast<size_t>(n) * kBlockSize);
  std::vector<AioSqe> sqes(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t* image = images.data() + static_cast<size_t>(i) * kBlockSize;
    Error err = read_block(targets[i], image);
    if (!Ok(err)) {
      return err;
    }
    payload.Add(image, kBlockSize);
    sqes[i].op = AioOp::kWrite;
    sqes[i].buf = image;
    sqes[i].offset =
        static_cast<off_t64>(start_ + next_pos_ + 1 + i) * kBlockSize;
    sqes[i].len = kBlockSize;
    sqes[i].tag = i;
  }

  // After a failed image nothing more is submitted, but every completion
  // already in flight is reaped, so none is left for the next commit to
  // take as its own.
  size_t submitted = 0;
  size_t reaped = 0;
  Error failed = Error::kOk;
  while (reaped < (Ok(failed) ? n : submitted)) {
    size_t accepted = 0;
    if (Ok(failed) && submitted < n) {
      Error err = ring_->Submit(sqes.data() + submitted, n - submitted,
                                &accepted);
      if (!Ok(err)) {
        return err;
      }
      submitted += accepted;
    }
    AioCqe cqes[16];
    size_t got = 0;
    Error err = ring_->Reap(cqes, sizeof(cqes) / sizeof(cqes[0]), &got);
    if (!Ok(err)) {
      return err;
    }
    if (got == 0 && accepted == 0) {
      return Error::kIo;  // ring wedged: accepting nothing, completing nothing
    }
    for (size_t i = 0; i < got; ++i) {
      if (Ok(failed) && (!Ok(cqes[i].status) || cqes[i].actual != kBlockSize)) {
        failed = Ok(cqes[i].status) ? Error::kIo : cqes[i].status;
      }
    }
    reaped += got;
  }
  if (!Ok(failed)) {
    return failed;
  }
  *out_payload_checksum = payload.Finish();
  return Error::kOk;
}

Error JournalWriter::Barrier() {
  return barrier_ ? barrier_->Flush() : Error::kOk;
}

Error JournalWriter::WriteJsb(bool flush) {
  JournalSuper jsb;
  jsb.region_blocks = region_;
  jsb.next_pos = next_pos_;
  jsb.next_seq = next_seq_;
  Error err = StoreJsb(device_.get(), start_, &jsb);
  if (!Ok(err)) {
    return err;
  }
  return flush ? Barrier() : Error::kOk;
}

Error JournalWriter::Commit(
    const std::vector<uint32_t>& targets,
    const std::function<Error(uint32_t, uint8_t*)>& read_block) {
  uint32_t n = static_cast<uint32_t>(targets.size());
  if (n == 0) {
    return Error::kOk;
  }
  if (n > capacity()) {
    return Error::kNoSpace;
  }
  if (next_pos_ + n + 2 > region_) {
    // Wrap.  The checkpoint must be durable BEFORE old journal space is
    // reused, or a stale checkpoint could point a future replay into the
    // middle of this transaction's images.
    next_pos_ = 1;
    Error err = WriteJsb(/*flush=*/true);
    if (!Ok(err)) {
      return err;
    }
  }

  uint64_t payload = 0;
  {
    Error err = WriteImages(targets, read_block, &payload);
    if (!Ok(err)) {
      return err;
    }
  }

  uint8_t header_block[kBlockSize] = {};
  TxnHeader header;
  header.n_blocks = n;
  header.seq = next_seq_;
  header.payload_checksum = payload;
  std::memcpy(header_block, &header, sizeof(header));
  std::memcpy(header_block + sizeof(header), targets.data(),
              n * sizeof(uint32_t));
  Error err = WriteRaw(next_pos_, header_block);
  if (!Ok(err)) {
    return err;
  }

  uint8_t commit_block[kBlockSize] = {};
  TxnCommit commit;
  commit.n_blocks = n;
  commit.seq = next_seq_;
  std::memcpy(commit_block, &commit, sizeof(commit));
  commit.checksum = CommitChecksum(header_block, commit_block);
  std::memcpy(commit_block, &commit, sizeof(commit));
  err = WriteRaw(next_pos_ + 1 + n, commit_block);
  if (!Ok(err)) {
    return err;
  }

  // The commit barrier: after this returns, the transaction replays.
  err = Barrier();
  if (!Ok(err)) {
    return err;
  }
  next_pos_ += n + 2;
  ++next_seq_;
  return Error::kOk;
}

Error JournalWriter::Checkpoint() { return WriteJsb(/*flush=*/false); }

}  // namespace oskit::fs
