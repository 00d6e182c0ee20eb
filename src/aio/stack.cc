#include "src/aio/stack.h"

#include <cstring>

#include "src/base/panic.h"

namespace oskit::aio {

namespace {

// The checksum layer's digest.  It is kept only in the layer's volatile
// table (see stack.h), so it is no on-disk format and need not match the
// journal's FNV-1a.  Four independent lanes consume the granule a 64-bit
// word at a time (word i feeds lane i % 4), so their multiplies overlap
// instead of one dependent multiply per byte.  A lane step
//   lane -> rotl(lane + word * kP2, 31) * kP1
// is a bijection of the lane for a fixed word and of the word for a fixed
// lane, and the merge is a bijection of each lane with the others fixed.
// So two equal-length buffers that differ in exactly one 8-byte word (or
// in the zero-padded tail) always digest differently.
constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;

uint64_t LaneStep(uint64_t lane, uint64_t word) {
  lane += word * kP2;
  lane = (lane << 31) | (lane >> 33);
  return lane * kP1;
}

uint64_t LoadWord(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t Digest(const uint8_t* data, size_t len) {
  uint64_t lanes[4] = {1, 2, 3, 4};
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    for (int k = 0; k < 4; ++k) {
      lanes[k] = LaneStep(lanes[k], LoadWord(data + i + 8 * k));
    }
  }
  int k = 0;
  for (; i + 8 <= len; i += 8, ++k) {
    lanes[k] = LaneStep(lanes[k], LoadWord(data + i));
  }
  if (i < len) {
    uint64_t tail = 0;
    std::memcpy(&tail, data + i, len - i);
    lanes[k] = LaneStep(lanes[k], tail);
  }
  uint64_t digest = len;
  for (uint64_t lane : lanes) {
    digest = (digest ^ LaneStep(0, lane)) * kP1;
  }
  return digest;
}

}  // namespace

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
  off_t64 last = (offset + actual) / granule_;                  // round down
  for (off_t64 g = first; g < last; ++g) {
    auto it = table_.find(g);
    if (it == table_.end()) {
      continue;  // unchecked: no write observed this power cycle
    }
    const uint8_t* granule_data = data + (g * granule_ - offset);
    if (Digest(granule_data, granule_) != it->second) {
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
  const auto* data = static_cast<const uint8_t*>(buf);
  off_t64 begin = offset / granule_;
  off_t64 end = (offset + actual + granule_ - 1) / granule_;
  for (off_t64 g = begin; g < end; ++g) {
    off_t64 g_start = g * granule_;
    if (g_start >= offset && g_start + granule_ <= offset + actual) {
      table_[g] = Digest(data + (g_start - offset), granule_);
      ++updates_;
    } else {
      // Partial edge: the layer does not read-to-merge, so the granule's
      // post-write digest is unknown — drop it back to unchecked.
      table_.erase(g);
    }
  }
  *out_actual = actual;
  return Error::kOk;
}

}  // namespace oskit::aio
