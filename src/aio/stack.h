// Stackable block-IO layers over the COM block boundary (ROADMAP item 2,
// after the "Fast & Flexible IO" compositional-storage model).
//
// Each layer implements BlkIo + BlkIoBarrier and sits on whatever BlkIo it
// is given — a raw IDE device, a partition view, another layer — so any
// composition order works and a filesystem mounts on the top of the stack
// without knowing the stack exists.  The PR-4 crash campaign runs unchanged
// over every permutation (bench/crash_campaign --stack), which is the
// regression net for the composition invariants:
//
//  - Barrier propagation: Flush() on a layer reaches every underlying
//    device's write cache (striping fans it out to all children; layers
//    whose child exports no BlkIoBarrier treat it as durable-by-default,
//    same as the block cache).
//  - Bounds discipline: every layer applies the byte-range contract
//    (ClampRange in src/com/blkio.h) before touching a child.
//  - The checksum layer's state is VOLATILE by design.  A persistent
//    per-block checksum table cannot be made crash-consistent from below
//    the journal (the data write and the table write tear independently
//    under a power cut, turning replay into spurious kIo), so the table
//    lives in memory, detects corruption within a power cycle — a torn or
//    scribbled sector read back while the machine is up — and leaves
//    cross-cycle integrity to the journal's own checksums, exactly the
//    split the journal format already implements.
//
// SyncRingAdapter::Wrap adapts any plain BlkIo to the BlkIoRing interface
// by executing submissions eagerly, in submission order, so ring consumers
// (the journal's batched commit) work over every device; devices with a
// native ring (the IDE glue) are preferred by querying the device first.

#ifndef OSKIT_SRC_AIO_STACK_H_
#define OSKIT_SRC_AIO_STACK_H_

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "src/com/aio.h"
#include "src/com/blkio.h"
#include "src/com/iunknown.h"
#include "src/trace/trace.h"

namespace oskit::aio {

// ---------------------------------------------------------------------------
// Sync-over-async adapter: BlkIoRing for any BlkIo.
// ---------------------------------------------------------------------------

class SyncRingAdapter final
    : public ComObject<SyncRingAdapter, BlkIo, BlkIoBarrier, BlkIoRing> {
 public:
  static constexpr size_t kRingDepth = 64;

  // Takes a reference on `below`; the adapter also passes plain BlkIo and
  // barrier calls through, so it can sit in a stack like any other layer.
  static ComPtr<SyncRingAdapter> Wrap(BlkIo* below,
                                      trace::TraceEnv* trace = nullptr);

  uint32_t GetBlockSize() override { return below_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    return below_->Read(buf, offset, amount, out_actual);
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    return below_->Write(buf, offset, amount, out_actual);
  }
  Error GetSize(off_t64* out_size) override { return below_->GetSize(out_size); }
  Error SetSize(off_t64 new_size) override { return below_->SetSize(new_size); }

  Error Flush() override { return barrier_ ? barrier_->Flush() : Error::kOk; }

  Error Submit(const AioSqe* sqes, size_t count, size_t* out_accepted) override;
  Error Reap(AioCqe* out_cqes, size_t cap, size_t* out_count) override;
  size_t Occupancy() override { return cq_.size(); }

 private:
  friend class RefCounted<SyncRingAdapter>;
  SyncRingAdapter(ComPtr<BlkIo> below, trace::TraceEnv* trace);
  ~SyncRingAdapter() = default;

  ComPtr<BlkIo> below_;
  ComPtr<BlkIoBarrier> barrier_;
  std::deque<AioCqe> cq_;
  trace::Counter sqes_;
  trace::CounterBlock trace_binding_;
};

// ---------------------------------------------------------------------------
// Striping layer: RAID0 over N children.
// ---------------------------------------------------------------------------

class StripeBlkIo final : public ComObject<StripeBlkIo, BlkIo, BlkIoBarrier> {
 public:
  // `stripe_unit` is the bytes of consecutive address space each child
  // serves per rotation; it must be a positive multiple of every child's
  // block size.  Capacity is the smallest child's, rounded down to whole
  // units, times the child count — RAID0.
  static ComPtr<StripeBlkIo> Create(std::vector<ComPtr<BlkIo>> children,
                                    uint32_t stripe_unit,
                                    trace::TraceEnv* trace = nullptr);

  uint32_t GetBlockSize() override { return block_size_; }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override;
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override;
  Error GetSize(off_t64* out_size) override {
    *out_size = size_;
    return Error::kOk;
  }

  // Fans the barrier out to EVERY child: a flush above the stripe is only
  // durable when all members drained their caches.
  Error Flush() override;

 private:
  friend class RefCounted<StripeBlkIo>;
  StripeBlkIo(std::vector<ComPtr<BlkIo>> children, uint32_t stripe_unit,
              trace::TraceEnv* trace);
  ~StripeBlkIo() = default;

  // Runs `amount` bytes at `offset` through per-child spans.
  template <typename OpFn>
  Error ForSpans(off_t64 offset, size_t amount, size_t* out_actual, OpFn&& op);

  std::vector<ComPtr<BlkIo>> children_;
  std::vector<ComPtr<BlkIoBarrier>> barriers_;  // parallel; may hold nulls
  uint32_t stripe_unit_;
  uint32_t block_size_ = 1;
  off_t64 size_ = 0;
  trace::Counter reads_;
  trace::Counter writes_;
  trace::Counter flushes_;
  trace::CounterBlock trace_binding_;
};

// ---------------------------------------------------------------------------
// Per-block checksum/integrity layer.
// ---------------------------------------------------------------------------

class ChecksumBlkIo final
    : public ComObject<ChecksumBlkIo, BlkIo, BlkIoBarrier> {
 public:
  static ComPtr<ChecksumBlkIo> Create(BlkIo* below,
                                      trace::TraceEnv* trace = nullptr);

  uint32_t GetBlockSize() override { return granule_; }
  // Reads verify every fully covered granule against the recorded digest
  // and surface kIo — never the corrupt bytes — on a mismatch.  Granules
  // no write has covered this power cycle are unchecked (entry empty).
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override;
  // Writes record the digest of every fully covered granule; a partial
  // edge granule invalidates its entry (the layer never reads-to-merge, so
  // it cannot know the merged bytes).
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override;
  Error GetSize(off_t64* out_size) override { return below_->GetSize(out_size); }

  Error Flush() override { return barrier_ ? barrier_->Flush() : Error::kOk; }

  uint64_t mismatches() const { return mismatches_.value(); }
  size_t tracked_granules() const {
    return std::count_if(table_.begin(), table_.end(),
                         [](const auto& entry) { return entry.has_value(); });
  }
  // Granules the table has room for: it grows only to cover a write the
  // device accepted.
  size_t table_granules() const { return table_.size(); }

 private:
  friend class RefCounted<ChecksumBlkIo>;
  ChecksumBlkIo(ComPtr<BlkIo> below, trace::TraceEnv* trace);
  ~ChecksumBlkIo() = default;

  ComPtr<BlkIo> below_;
  ComPtr<BlkIoBarrier> barrier_;
  uint32_t granule_;
  // Indexed by granule: the IntegrityDigest of its last full write, or
  // empty while unchecked.
  std::vector<std::optional<uint64_t>> table_;
  trace::Counter updates_;
  trace::Counter verified_;
  trace::Counter mismatches_;
  trace::CounterBlock trace_binding_;
};

}  // namespace oskit::aio

#endif  // OSKIT_SRC_AIO_STACK_H_
