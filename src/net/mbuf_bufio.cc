#include "src/net/mbuf_bufio.h"

#include <cstring>

#include "src/base/panic.h"

namespace oskit::net {

ComPtr<MbufBufIo> MbufBufIo::Wrap(MbufPool* pool, MBuf* chain) {
  return ComPtr<MbufBufIo>(new MbufBufIo(pool, chain));
}

MbufBufIo::~MbufBufIo() { pool_->FreeChain(chain_); }

Error MbufBufIo::Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) {
  *out_actual = 0;
  Error err = ClampRange(chain_->pkt_len, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  pool_->CopyData(chain_, offset, amount, buf);
  *out_actual = amount;
  return Error::kOk;
}

Error MbufBufIo::Write(const void* buf, off_t64 offset, size_t amount,
                       size_t* out_actual) {
  *out_actual = 0;
  Error err = ClampRange(chain_->pkt_len, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  // The chain invariant forbids writing through shared storage (CopyChain
  // creates refs>1 aliases); a write that would scribble another
  // packet's bytes is refused whole rather than applied partially.
  off_t64 off = offset;
  const MBuf* m = chain_;
  while (m != nullptr && off >= m->len) {
    off -= m->len;
    m = m->next;
  }
  size_t remaining = amount;
  for (const MBuf* probe = m; remaining > 0; probe = probe->next) {
    OSKIT_ASSERT(probe != nullptr);
    size_t covered = probe->len - static_cast<size_t>(off);
    if (probe->ext != nullptr && probe->ext->refs > 1 && probe->len > 0) {
      return Error::kBusy;
    }
    remaining -= covered < remaining ? covered : remaining;
    off = 0;
  }
  // Spanning write: fill each covered mbuf's window in turn.
  off = offset;
  MBuf* w = chain_;
  while (w != nullptr && off >= w->len) {
    off -= w->len;
    w = w->next;
  }
  const auto* src = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < amount) {
    OSKIT_ASSERT(w != nullptr);
    size_t piece = w->len - static_cast<size_t>(off);
    if (piece > amount - done) {
      piece = amount - done;
    }
    std::memcpy(w->data + off, src + done, piece);
    done += piece;
    off = 0;
    w = w->next;
  }
  *out_actual = amount;
  return Error::kOk;
}

Error MbufBufIo::GetSize(off_t64* out_size) {
  *out_size = chain_->pkt_len;
  return Error::kOk;
}

Error MbufBufIo::Map(void** out_addr, off_t64 offset, size_t amount) {
  // Succeeds when the range is contiguous in local memory (§4.7.3: "This
  // call will only succeed if the implementor of the bufio object happens to
  // store the requested range of data in contiguous local memory").  That
  // includes ranges spanning ADJACENT mbufs whose windows abut in storage —
  // e.g. two CopyChain pieces of one shared cluster — not just a single
  // mbuf.
  Error err = CheckWindow(chain_->pkt_len, offset, amount);
  if (!Ok(err)) {
    return err;
  }
  MBuf* m = chain_;
  off_t64 off = offset;
  while (m != nullptr && off >= m->len) {
    off -= m->len;
    m = m->next;
  }
  if (m == nullptr) {
    return Error::kNotImpl;
  }
  size_t contiguous = m->len - static_cast<size_t>(off);
  const MBuf* cur = m;
  while (contiguous < amount && cur->next != nullptr &&
         cur->next->data == cur->data + cur->len) {
    cur = cur->next;
    contiguous += cur->len;
  }
  if (amount > contiguous) {
    return Error::kNotImpl;
  }
  *out_addr = m->data + off;
  return Error::kOk;
}

Error MbufBufIo::Unmap(void* addr, off_t64 offset, size_t amount) {
  return Error::kOk;
}

Error MbufBufIo::Vectors(BufIoSegment* out_segs, size_t cap, off_t64 offset,
                         size_t amount, size_t* out_count) {
  *out_count = 0;
  Error err = CheckWindow(chain_->pkt_len, offset, amount);
  if (!Ok(err)) {
    return err;
  }
  const MBuf* m = chain_;
  off_t64 off = offset;
  while (m != nullptr && off >= m->len) {
    off -= m->len;
    m = m->next;
  }
  size_t count = 0;
  size_t remaining = amount;
  while (remaining > 0) {
    OSKIT_ASSERT(m != nullptr);
    size_t n = m->len - off;
    if (n > remaining) {
      n = remaining;
    }
    if (n > 0) {
      if (count == cap) {
        // More pieces than the consumer's gather descriptors; it falls
        // back to Read().
        *out_count = 0;
        return Error::kNotImpl;
      }
      out_segs[count].data = m->data + off;
      out_segs[count].len = n;
      ++count;
    }
    remaining -= n;
    off = 0;
    m = m->next;
  }
  *out_count = count;
  return Error::kOk;
}

Error MbufBufIo::UnmapVectors(off_t64 /*offset*/, size_t /*amount*/) {
  // The chain is owned by this object; nothing extra was pinned.
  return Error::kOk;
}

namespace {

// The external storage's context is the foreign packet; `buf` and `size`
// are the window mapped at offset 0.
void ReleaseForeign(void* ctx, uint8_t* buf, size_t size) {
  auto* packet = static_cast<BufIo*>(ctx);
  packet->Unmap(buf, 0, size);
  packet->Release();
}

}  // namespace

MBuf* MbufFromBufIo(MbufPool* pool, BufIo* packet, size_t size) {
  void* addr = nullptr;
  if (Ok(packet->Map(&addr, 0, size))) {
    // Zero-copy import: graft the foreign storage in as an external mbuf,
    // holding a reference on the foreign object until the chain dies.
    packet->AddRef();
    MBuf* m =
        pool->GetExternal(static_cast<uint8_t*>(addr), size, &ReleaseForeign, packet);
    m->pkt_len = static_cast<uint32_t>(size);
    return m;
  }
  // Discontiguous foreign packet: copy it.
  MBuf* m = pool->FromData(nullptr, size);
  size_t offset = 0;
  for (MBuf* cur = m; cur != nullptr; cur = cur->next) {
    size_t actual = 0;
    Error err = packet->Read(cur->data, offset, cur->len, &actual);
    if (!Ok(err) || actual != cur->len) {
      pool->FreeChain(m);
      return nullptr;
    }
    offset += cur->len;
  }
  return m;
}

}  // namespace oskit::net
