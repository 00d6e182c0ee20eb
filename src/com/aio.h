// Asynchronous block-IO completion ring — the io_uring-shaped extension of
// the block boundary (ROADMAP item 2, after the "Fast & Flexible IO"
// compositional-storage model).
//
// BlkIoRing is a new GUID discovered via Query on the same object that
// exports BlkIo (the §4.4.2 evolution idiom, exactly like BlkIoBarrier):
// clients that can batch — the journal's commit image writes, the aio
// campaign's queue-depth sweep — submit several tagged SQEs at once and
// reap completions in batches, letting a queue-depth-aware device schedule
// the whole set per controller round-trip.  Devices that cannot reorder
// simply don't export the interface; `aio::SyncRingAdapter::Wrap` adapts
// any plain BlkIo so every existing device still composes.
//
// Contract:
//  - Submit accepts up to `count` SQEs and reports how many were queued in
//    *out_accepted (backpressure: fewer than `count` when the submission
//    ring is full; zero is legal and means "reap first").
//  - Each accepted SQE completes exactly once with a CQE carrying the
//    caller's tag, a status, and the bytes actually transferred; CQEs are
//    delivered by Reap in completion order, which implementations may
//    choose freely (an LBA-sorting device completes out of submission
//    order — that is the point).
//  - Reap never blocks: it drains up to `cap` pending CQEs and returns the
//    count; implementations guarantee that every accepted SQE's CQE is
//    reapable after Submit returns (the simulated controller runs the
//    batch synchronously at submit time, so no poll/wait loop exists — the
//    asynchrony is in the interface and the scheduling, not the timing).
//  - kFlush SQEs are barriers within the ring: writes accepted before a
//    flush in the same or an earlier Submit are durable when the flush's
//    CQE reports kOk.

#ifndef OSKIT_SRC_COM_AIO_H_
#define OSKIT_SRC_COM_AIO_H_

#include <cstddef>
#include <cstdint>

#include "src/com/blkio.h"
#include "src/com/iunknown.h"

namespace oskit {

enum class AioOp : uint32_t {
  kRead = 0,
  kWrite = 1,
  kFlush = 2,
};

// Submission queue entry.  `buf` must stay valid until the CQE is reaped.
struct AioSqe {
  AioOp op = AioOp::kRead;
  void* buf = nullptr;      // unused for kFlush
  off_t64 offset = 0;       // unused for kFlush
  size_t len = 0;           // unused for kFlush
  uint64_t tag = 0;         // returned verbatim in the CQE
};

// Completion queue entry.
struct AioCqe {
  uint64_t tag = 0;
  Error status = Error::kOk;
  size_t actual = 0;  // bytes transferred (clamped short at end-of-device)
};

class BlkIoRing : public IUnknown {
 public:
  // Next GUID in the blkio family (blkio ...e1, barrier ...e2).
  static constexpr Guid kIid = MakeGuid(0x4aa7dfe3, 0x7c74, 0x11cf, 0xb5, 0x00, 0x08,
                                        0x00, 0x09, 0x53, 0xad, 0xc2);

  // Queues up to `count` SQEs; *out_accepted tells how many were taken.
  // Per-SQE failures (a wrapped range, a dead device) are reported through
  // that SQE's CQE status, not the Submit return — Submit itself fails only
  // when the arguments are malformed.
  virtual Error Submit(const AioSqe* sqes, size_t count, size_t* out_accepted) = 0;

  // Drains up to `cap` completions into out_cqes; *out_count received.
  virtual Error Reap(AioCqe* out_cqes, size_t cap, size_t* out_count) = 0;

  // SQEs accepted but not yet reaped (diagnostics; kmon's `aio` command).
  virtual size_t Occupancy() = 0;

 protected:
  ~BlkIoRing() = default;
};

}  // namespace oskit

#endif  // OSKIT_SRC_COM_AIO_H_
