// Write-ahead intent journal for offs metadata (the durability half of the
// paper's "real filesystem over any driver" story).
//
// Physical-redo design.  A transaction is the full 4 KB images of every
// metadata block an operation batch touched, laid out contiguously in the
// journal region:
//
//   block jsb:        journal superblock (checkpoint: where replay starts)
//   block pos:        TxnHeader + target block numbers
//   blocks pos+1..:   the n block images
//   block pos+1+n:    TxnCommit
//
// Every checksum is the kit's IntegrityDigest (src/base/digest.h).  The
// commit record carries one over the header block as written and the rest
// of the commit block, and the header carries one over the n images as a
// single stream, so ANY torn, dropped, or reordered write inside an
// unflushed transaction invalidates it as a whole: replay applies a
// committed transaction completely or not at all, and applying one twice is
// a no-op (redo is idempotent).
//
// The checkpoint is written lazily (unflushed) after each transaction's
// home-location writeback; a stale checkpoint only makes replay redo work
// already done.  The one ordering hazard — a new transaction wrapping over
// journal space a stale checkpoint still points into — is closed by writing
// and FLUSHING a fresh checkpoint before every wrap, so a replay chain
// never crosses a wrap boundary.

#ifndef OSKIT_SRC_FS_JOURNAL_H_
#define OSKIT_SRC_FS_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/com/aio.h"
#include "src/com/blkio.h"
#include "src/fs/format.h"
#include "src/trace/trace.h"

namespace oskit::fs {

// Whole-block IO on the raw device, as mkfs, fsck and the journal do it:
// kIo unless exactly kBlockSize bytes moved.
Error ReadBlockRaw(BlkIo* device, uint32_t block, void* out);
Error WriteBlockRaw(BlkIo* device, uint32_t block, const void* data);

inline constexpr uint32_t kJournalMagic = 0x4a4f5552;    // "JOUR"
// Version 1 used FNV-1a checksums; a version-1 journal is refused as
// kCorrupt, like any jsb that fails validation.
inline constexpr uint32_t kJournalVersion = 2;
inline constexpr uint32_t kTxnHeaderMagic = 0x54584e48;  // "TXNH"
inline constexpr uint32_t kTxnCommitMagic = 0x54584e43;  // "TXNC"
// jsb + header + one image + commit.
inline constexpr uint32_t kMinJournalBlocks = 4;

// Lives in the first sector of the first journal block, so the sector-run
// tear model can never leave it half-written: a cut yields the old record
// or the new one, both valid.
struct JournalSuper {
  uint32_t magic = kJournalMagic;
  uint32_t version = kJournalVersion;
  uint32_t region_blocks = 0;
  uint32_t next_pos = 1;  // region-relative block of the next transaction
  uint64_t next_seq = 1;
  uint64_t checksum = 0;  // IntegrityDigest over the fields above
};

struct TxnHeader {
  uint32_t magic = kTxnHeaderMagic;
  uint32_t n_blocks = 0;
  uint64_t seq = 0;
  uint64_t payload_checksum = 0;  // over the n concatenated images
  // Followed in the block by uint32_t targets[n_blocks].
};

struct TxnCommit {
  uint32_t magic = kTxnCommitMagic;
  uint32_t n_blocks = 0;
  uint64_t seq = 0;
  // IntegrityDigest over the header block as written, then this block
  // without this field.
  uint64_t checksum = 0;
};

inline constexpr uint32_t kMaxTxnTargets =
    (kBlockSize - sizeof(TxnHeader)) / sizeof(uint32_t);

struct JournalReplayStats {
  bool journal_present = false;  // volume has a region with a valid jsb
  uint32_t replayed_txns = 0;
  uint32_t replayed_blocks = 0;
  uint32_t discarded_txns = 0;   // commit-chain candidates that failed checks
};

// Formats the journal region described by `sb` (fresh jsb; the caller has
// already zeroed the region, which Mkfs's metadata sweep does).
Error JournalFormat(BlkIo* device, const SuperBlock& sb);

// Walks the commit chain from the on-disk checkpoint.  With `apply`,
// committed images are written to their home blocks, a barrier is issued,
// and the checkpoint is advanced past the chain; without it the device is
// not written (fsck's verify mode).  kOk with journal_present=false when
// the volume has no journal; kCorrupt when the jsb itself fails validation.
Error JournalReplay(BlkIo* device, const SuperBlock& sb, bool apply,
                    JournalReplayStats* stats);

// The mounted filesystem's append side.
class JournalWriter {
 public:
  // `trace` is the mount's environment: the ring adapter made for a device
  // without a BlkIoRing binds its aio.ring.* counters there.
  JournalWriter(ComPtr<BlkIo> device, uint32_t journal_start,
                uint32_t journal_blocks, trace::TraceEnv* trace);

  // Reads and validates the on-disk checkpoint.
  Error Load();

  // Most block images one transaction can carry.
  uint32_t capacity() const;

  // Writes one transaction (images, header, commit) and flushes it.
  // `read_block` supplies the current image of each target.  kNoSpace when
  // targets exceed capacity() — the caller falls back to an unjournaled
  // writeback.
  Error Commit(const std::vector<uint32_t>& targets,
               const std::function<Error(uint32_t, uint8_t*)>& read_block);

  // Advances the on-disk checkpoint past everything committed so far.
  // Deliberately unflushed: see the file comment.
  Error Checkpoint();

  uint64_t next_seq() const { return next_seq_; }
  uint32_t next_pos() const { return next_pos_; }

 private:
  Error WriteRaw(uint32_t region_block, const void* data);
  // The transaction's n images as one submission batch: a ring-capable
  // device schedules the whole contiguous run per controller round-trip.
  // A device that grants no BlkIoRing is wrapped once, at construction, in
  // aio::SyncRingAdapter, which writes the batch in submission order.
  Error WriteImages(const std::vector<uint32_t>& targets,
                    const std::function<Error(uint32_t, uint8_t*)>& read_block,
                    uint64_t* out_payload_checksum);
  Error WriteJsb(bool flush);
  Error Barrier();

  ComPtr<BlkIo> device_;
  ComPtr<BlkIoBarrier> barrier_;
  ComPtr<BlkIoRing> ring_;
  uint32_t start_;
  uint32_t region_;
  uint32_t next_pos_ = 1;
  uint64_t next_seq_ = 1;
};

}  // namespace oskit::fs

#endif  // OSKIT_SRC_FS_JOURNAL_H_
