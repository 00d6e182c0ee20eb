#include "src/aio/stack.h"

#include <algorithm>

#include "src/base/digest.h"
#include "src/base/panic.h"

namespace oskit::aio {

// ---------------------------------------------------------------------------
// SyncRingAdapter
// ---------------------------------------------------------------------------

SyncRingAdapter::SyncRingAdapter(ComPtr<BlkIo> below, trace::TraceEnv* trace)
    : below_(std::move(below)) {
  barrier_ = ComPtr<BlkIoBarrier>::FromQuery(below_.get());
  trace::TraceEnv* tenv = trace::ResolveTraceEnv(trace);
  trace_binding_.Bind(&tenv->registry, {{"aio.ring.sync_sqes", &sqes_}});
}

ComPtr<SyncRingAdapter> SyncRingAdapter::Wrap(BlkIo* below,
                                              trace::TraceEnv* trace) {
  OSKIT_ASSERT(below != nullptr);
  return ComPtr<SyncRingAdapter>(
      new SyncRingAdapter(ComPtr<BlkIo>::Retain(below), trace));
}

Error SyncRingAdapter::Submit(const AioSqe* sqes, size_t count,
                              size_t* out_accepted) {
  *out_accepted = 0;
  if (sqes == nullptr && count != 0) {
    return Error::kInval;
  }
  size_t space = kRingDepth > cq_.size() ? kRingDepth - cq_.size() : 0;
  size_t accepted = count < space ? count : space;
  sqes_ += accepted;
  for (size_t i = 0; i < accepted; ++i) {
    const AioSqe& s = sqes[i];
    AioCqe cqe;
    cqe.tag = s.tag;
    switch (s.op) {
      case AioOp::kRead:
        cqe.status = below_->Read(s.buf, s.offset, s.len, &cqe.actual);
        break;
      case AioOp::kWrite:
        cqe.status = below_->Write(s.buf, s.offset, s.len, &cqe.actual);
        break;
      case AioOp::kFlush:
        cqe.status = Flush();
        break;
    }
    cq_.push_back(cqe);
  }
  *out_accepted = accepted;
  return Error::kOk;
}

Error SyncRingAdapter::Reap(AioCqe* out_cqes, size_t cap, size_t* out_count) {
  size_t n = 0;
  while (n < cap && !cq_.empty()) {
    out_cqes[n++] = cq_.front();
    cq_.pop_front();
  }
  *out_count = n;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// StripeBlkIo
// ---------------------------------------------------------------------------

StripeBlkIo::StripeBlkIo(std::vector<ComPtr<BlkIo>> children,
                         uint32_t stripe_unit, trace::TraceEnv* trace)
    : children_(std::move(children)), stripe_unit_(stripe_unit) {
  OSKIT_ASSERT_MSG(!children_.empty(), "stripe needs at least one member");
  OSKIT_ASSERT(stripe_unit_ > 0);
  off_t64 min_child = ~off_t64{0};
  for (auto& child : children_) {
    uint32_t bs = child->GetBlockSize();
    OSKIT_ASSERT_MSG(stripe_unit_ % bs == 0,
                     "stripe unit must be a multiple of the child block size");
    if (bs > block_size_) {
      block_size_ = bs;
    }
    off_t64 child_size = 0;
    OSKIT_ASSERT(Ok(child->GetSize(&child_size)));
    if (child_size < min_child) {
      min_child = child_size;
    }
    barriers_.push_back(ComPtr<BlkIoBarrier>::FromQuery(child.get()));
  }
  size_ = (min_child / stripe_unit_) * stripe_unit_ * children_.size();
  trace::TraceEnv* tenv = trace::ResolveTraceEnv(trace);
  trace_binding_.Bind(&tenv->registry, {{"aio.stripe.reads", &reads_},
                                        {"aio.stripe.writes", &writes_},
                                        {"aio.stripe.flushes", &flushes_}});
}

ComPtr<StripeBlkIo> StripeBlkIo::Create(std::vector<ComPtr<BlkIo>> children,
                                        uint32_t stripe_unit,
                                        trace::TraceEnv* trace) {
  return ComPtr<StripeBlkIo>(
      new StripeBlkIo(std::move(children), stripe_unit, trace));
}

// RAID0 address map: unit index `offset / unit` rotates over the members;
// member-local offset re-linearizes the member's own units.
template <typename OpFn>
Error StripeBlkIo::ForSpans(off_t64 offset, size_t amount, size_t* out_actual,
                            OpFn&& op) {
  *out_actual = 0;
  Error err = ClampRange(size_, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  size_t done = 0;
  while (done < amount) {
    off_t64 at = offset + done;
    off_t64 unit = at / stripe_unit_;
    size_t child = static_cast<size_t>(unit % children_.size());
    off_t64 child_unit = unit / children_.size();
    uint32_t in_unit = static_cast<uint32_t>(at % stripe_unit_);
    size_t span = stripe_unit_ - in_unit;
    if (span > amount - done) {
      span = amount - done;
    }
    off_t64 child_off = child_unit * stripe_unit_ + in_unit;
    size_t actual = 0;
    err = op(children_[child].get(), child_off, done, span, &actual);
    done += actual;
    if (!Ok(err)) {
      *out_actual = done;
      return err;
    }
    if (actual != span) {
      break;  // short child IO: report the prefix
    }
  }
  *out_actual = done;
  return Error::kOk;
}

Error StripeBlkIo::Read(void* buf, off_t64 offset, size_t amount,
                        size_t* out_actual) {
  ++reads_;
  auto* out = static_cast<uint8_t*>(buf);
  return ForSpans(offset, amount, out_actual,
                  [out](BlkIo* child, off_t64 child_off, size_t done,
                        size_t span, size_t* actual) {
                    return child->Read(out + done, child_off, span, actual);
                  });
}

Error StripeBlkIo::Write(const void* buf, off_t64 offset, size_t amount,
                         size_t* out_actual) {
  ++writes_;
  const auto* in = static_cast<const uint8_t*>(buf);
  return ForSpans(offset, amount, out_actual,
                  [in](BlkIo* child, off_t64 child_off, size_t done,
                       size_t span, size_t* actual) {
                    return child->Write(in + done, child_off, span, actual);
                  });
}

Error StripeBlkIo::Flush() {
  ++flushes_;
  // Every member must drain; keep flushing after a failure and surface the
  // first error (a half-flushed stripe set is not durable).
  Error first = Error::kOk;
  for (auto& barrier : barriers_) {
    if (!barrier) {
      continue;  // durable-by-default member
    }
    Error err = barrier->Flush();
    if (!Ok(err) && Ok(first)) {
      first = err;
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// ChecksumBlkIo
//
// The table holds the kit's IntegrityDigest (src/base/digest.h), the same
// word-parallel digest the journal writes to disk.  Here it stays in memory
// only (see stack.h): one entry per granule, grown by accepted writes.
// ---------------------------------------------------------------------------

ChecksumBlkIo::ChecksumBlkIo(ComPtr<BlkIo> below, trace::TraceEnv* trace)
    : below_(std::move(below)), granule_(below_->GetBlockSize()) {
  OSKIT_ASSERT(granule_ > 0);
  barrier_ = ComPtr<BlkIoBarrier>::FromQuery(below_.get());
  trace::TraceEnv* tenv = trace::ResolveTraceEnv(trace);
  trace_binding_.Bind(&tenv->registry,
                      {{"aio.checksum.updates", &updates_},
                       {"aio.checksum.verified", &verified_},
                       {"aio.checksum.mismatches", &mismatches_}});
}

ComPtr<ChecksumBlkIo> ChecksumBlkIo::Create(BlkIo* below,
                                            trace::TraceEnv* trace) {
  OSKIT_ASSERT(below != nullptr);
  return ComPtr<ChecksumBlkIo>(
      new ChecksumBlkIo(ComPtr<BlkIo>::Retain(below), trace));
}

Error ChecksumBlkIo::Read(void* buf, off_t64 offset, size_t amount,
                          size_t* out_actual) {
  *out_actual = 0;
  // The device below enforces its own end; only a wrap is refused here.
  Error err = ClampRange(~off_t64{0}, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  size_t actual = 0;
  err = below_->Read(buf, offset, amount, &actual);
  if (!Ok(err)) {
    return err;
  }
  // Verify every granule the read fully covered.  A mismatch means the
  // device returned different bytes than the last acknowledged write put
  // there — torn sector, scribble, bit rot — and the caller gets kIo, not
  // the corrupt data.
  const auto* data = static_cast<const uint8_t*>(buf);
  off_t64 first = (offset + granule_ - 1) / granule_;           // round up
  off_t64 last = std::min<off_t64>((offset + actual) / granule_,  // round down
                                   table_.size());
  for (off_t64 g = first; g < last; ++g) {
    if (!table_[g]) {
      continue;  // unchecked: no write observed this power cycle
    }
    if (IntegrityDigestOf(data + (g * granule_ - offset), granule_) != *table_[g]) {
      ++mismatches_;
      return Error::kIo;
    }
    ++verified_;
  }
  *out_actual = actual;
  return Error::kOk;
}

Error ChecksumBlkIo::Write(const void* buf, off_t64 offset, size_t amount,
                           size_t* out_actual) {
  *out_actual = 0;
  Error err = ClampRange(~off_t64{0}, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  size_t actual = 0;
  err = below_->Write(buf, offset, amount, &actual);
  if (!Ok(err)) {
    return err;
  }
  if (actual == 0) {
    return Error::kOk;
  }
  const auto* data = static_cast<const uint8_t*>(buf);
  off_t64 begin = offset / granule_;
  off_t64 end = (offset + actual + granule_ - 1) / granule_;
  if (end > table_.size()) {
    table_.resize(end);  // the device took these bytes: `end` is within it
  }
  for (off_t64 g = begin; g < end; ++g) {
    off_t64 g_start = g * granule_;
    if (g_start >= offset && g_start + granule_ <= offset + actual) {
      table_[g] = IntegrityDigestOf(data + (g_start - offset), granule_);
      ++updates_;
    } else {
      // Partial edge: the layer does not read-to-merge, so the granule's
      // post-write digest is unknown — drop it back to unchecked.
      table_[g].reset();
    }
  }
  *out_actual = actual;
  return Error::kOk;
}

}  // namespace oskit::aio
