#include "src/net/mbuf.h"

#include <cstring>
#include <new>

#include "src/base/free_list.h"
#include "src/base/panic.h"

namespace oskit::net {

namespace {

// A 2 KB cluster's storage, as the free list sees it.
struct Cluster {
  uint8_t bytes[kClusterSize];
};

using MbufList = FreeList<MBuf, MbufPool::kCacheMax>;
using ExtList = FreeList<MExt, MbufPool::kCacheMax>;
using ClusterList = FreeList<Cluster, MbufPool::kCacheMax>;

}  // namespace

MbufPool::~MbufPool() {
  // Live buffers at teardown are a component bug; be loud in tests.
  OSKIT_ASSERT_MSG(mbufs_live_ == 0, "mbuf leak at pool destruction");
  OSKIT_ASSERT_MSG(clusters_live_ == 0, "cluster leak at pool destruction");
}

MBuf* MbufPool::Get() {
  // Value-initialized, recycled or not: internal bytes read as zero.
  auto* m = new (MbufList::Take()) MBuf();
  m->data = m->internal;
  ++mbufs_live_;
  ++total_allocs_;
  return m;
}

MBuf* MbufPool::GetHeaderAligned(size_t payload_len) {
  OSKIT_ASSERT(payload_len <= MBuf::kDataSpace);
  MBuf* m = Get();
  m->data = m->internal + (MBuf::kDataSpace - payload_len);
  m->len = static_cast<uint32_t>(payload_len);
  m->pkt_len = m->len;
  return m;
}

MExt* MbufPool::GetClusterExt() {
  auto* ext = new (ExtList::Take()) MExt();
  ext->buf = static_cast<uint8_t*>(ClusterList::Take());
  ext->size = kClusterSize;
  ext->free_fn = &MbufPool::FreeClusterStorage;
  ext->free_ctx = this;
  ext->refs = 1;
  ++clusters_live_;
  return ext;
}

void MbufPool::FreeClusterStorage(void* ctx, uint8_t* buf, size_t /*size*/) {
  ClusterList::Give(buf);
  --static_cast<MbufPool*>(ctx)->clusters_live_;
}

MBuf* MbufPool::GetCluster() {
  MBuf* m = Get();
  m->ext = GetClusterExt();
  m->data = m->ext->buf;
  return m;
}

MBuf* MbufPool::GetExternal(uint8_t* buf, size_t size,
                            void (*free_fn)(void*, uint8_t*, size_t), void* ctx) {
  MBuf* m = Get();
  auto* ext = new (ExtList::Take()) MExt();
  ext->buf = buf;
  ext->size = size;
  ext->free_fn = free_fn;
  ext->free_ctx = ctx;
  ext->refs = 1;
  m->ext = ext;
  m->data = buf;
  m->len = static_cast<uint32_t>(size);
  return m;
}

MBuf* MbufPool::Free(MBuf* m) {
  OSKIT_ASSERT(m != nullptr);
  MBuf* next = m->next;
  if (m->ext != nullptr) {
    OSKIT_ASSERT(m->ext->refs > 0);
    if (--m->ext->refs == 0) {
      if (m->ext->free_fn != nullptr) {
        m->ext->free_fn(m->ext->free_ctx, m->ext->buf, m->ext->size);
      }
      ExtList::Give(m->ext);
    }
  }
  MbufList::Give(m);
  --mbufs_live_;
  return next;
}

void MbufPool::FreeChain(MBuf* m) {
  while (m != nullptr) {
    m = Free(m);
  }
}

MBuf* MbufPool::Prepend(MBuf* m, size_t len) {
  // Shared external storage must not be written through; a fresh head is
  // needed unless this mbuf privately owns headroom.
  bool writable = m->ext == nullptr || m->ext->refs == 1;
  if (writable && m->leading_space() >= len) {
    m->data -= len;
    m->len += static_cast<uint32_t>(len);
    m->pkt_len += static_cast<uint32_t>(len);
    return m;
  }
  OSKIT_ASSERT_MSG(len <= MBuf::kDataSpace, "prepend larger than an mbuf");
  MBuf* head = Get();
  // Leave maximal headroom behind us for further prepends.
  head->data = head->internal + (MBuf::kDataSpace - len);
  head->len = static_cast<uint32_t>(len);
  head->pkt_len = m->pkt_len + static_cast<uint32_t>(len);
  head->next = m;
  return head;
}

void MbufPool::CopyData(const MBuf* m, size_t offset, size_t len, void* dst) {
  auto* out = static_cast<uint8_t*>(dst);
  while (m != nullptr && offset >= m->len) {
    offset -= m->len;
    m = m->next;
  }
  while (len > 0) {
    OSKIT_ASSERT_MSG(m != nullptr, "CopyData past end of chain");
    size_t n = m->len - offset;
    if (n > len) {
      n = len;
    }
    std::memcpy(out, m->data + offset, n);
    out += n;
    len -= n;
    offset = 0;
    m = m->next;
  }
}

MBuf* MbufPool::FromData(const void* src, size_t len) {
  const auto* in = static_cast<const uint8_t*>(src);
  MBuf* head = nullptr;
  MBuf* tail = nullptr;
  size_t remaining = len;
  do {
    MBuf* m = remaining > MBuf::kDataSpace ? GetCluster() : Get();
    size_t n = remaining < m->buf_size() ? remaining : m->buf_size();
    if (in != nullptr) {
      std::memcpy(m->data, in, n);
      in += n;
    }
    m->len = static_cast<uint32_t>(n);
    remaining -= n;
    if (head == nullptr) {
      head = m;
    } else {
      tail->next = m;
    }
    tail = m;
  } while (remaining > 0);
  head->pkt_len = static_cast<uint32_t>(len);
  return head;
}

void MbufPool::Append(MBuf* m, const void* src, size_t len) {
  const auto* in = static_cast<const uint8_t*>(src);
  MBuf* tail = m;
  while (tail->next != nullptr) {
    tail = tail->next;
  }
  // Fill the tail's remaining space when it is privately writable.
  if ((tail->ext == nullptr || tail->ext->refs == 1) && len > 0) {
    size_t n = tail->trailing_space();
    if (n > len) {
      n = len;
    }
    if (n > 0) {
      std::memcpy(tail->data + tail->len, in, n);
      tail->len += static_cast<uint32_t>(n);
      m->pkt_len += static_cast<uint32_t>(n);
      in += n;
      len -= n;
    }
  }
  if (len > 0) {
    tail->next = FromData(in, len);
    tail->next->pkt_len = 0;  // pkt_len lives on the head only
    m->pkt_len += static_cast<uint32_t>(len);
  }
}

MBuf* MbufPool::Pullup(MBuf* m, size_t len) {
  if (m->len >= len) {
    return m;
  }
  if (len > MBuf::kDataSpace || len > m->pkt_len) {
    FreeChain(m);
    return nullptr;
  }
  MBuf* head = Get();
  head->pkt_len = m->pkt_len;
  CopyData(m, 0, len, head->data);
  head->len = static_cast<uint32_t>(len);
  // Drop the copied bytes from the old chain and link the rest.
  MBuf* rest = m;
  size_t drop = len;
  while (rest != nullptr && drop >= rest->len) {
    drop -= rest->len;
    rest = Free(rest);
  }
  if (rest != nullptr) {
    rest->data += drop;
    rest->len -= static_cast<uint32_t>(drop);
  }
  head->next = rest;
  return head;
}

MBuf* MbufPool::TrimFront(MBuf* m, size_t len) {
  OSKIT_ASSERT(len <= m->pkt_len);
  while (len > 0 && m != nullptr) {
    if (len < m->len) {
      m->data += len;
      m->len -= static_cast<uint32_t>(len);
      break;
    }
    len -= m->len;
    m = Free(m);
  }
  if (m == nullptr) {
    // Whole packet consumed: give back an empty mbuf to keep callers simple.
    m = Get();
  }
  m->pkt_len = static_cast<uint32_t>(ChainLength(m));
  return m;
}

void MbufPool::TrimTo(MBuf* m, size_t len) {
  OSKIT_ASSERT(len <= m->pkt_len);
  m->pkt_len = static_cast<uint32_t>(len);
  MBuf* cur = m;
  while (cur != nullptr) {
    if (len >= cur->len) {
      len -= cur->len;
      cur = cur->next;
      continue;
    }
    cur->len = static_cast<uint32_t>(len);
    len = 0;
    // Free everything after this point.
    FreeChain(cur->next);
    cur->next = nullptr;
    break;
  }
}

MBuf* MbufPool::Piece(const MBuf* m, size_t offset, size_t len) {
  MBuf* piece = Get();
  if (m->ext != nullptr) {
    // Reference the same external storage, no copy.
    piece->ext = m->ext;
    ++m->ext->refs;
    piece->data = m->data + offset;
  } else {
    std::memcpy(piece->data, m->data + offset, len);
  }
  piece->len = static_cast<uint32_t>(len);
  return piece;
}

MBuf* MbufPool::CopyChain(const MBuf* m, size_t offset, size_t len) {
  // Socket buffers splice chains together without maintaining pkt_len, so
  // bounds-check against the actual chain length.
  size_t chain_len = ChainLength(m);
  if (len == kCopyAll) {
    len = chain_len - offset;
  }
  OSKIT_ASSERT(offset + len <= chain_len);
  if (len == 0) {
    return Get();  // an empty packet: one empty mbuf
  }
  // Share external storage where possible (BSD m_copym semantics): walk to
  // the offset, then reference each covered mbuf's storage.
  while (m != nullptr && offset >= m->len) {
    offset -= m->len;
    m = m->next;
  }
  MBuf* head = nullptr;
  MBuf* tail = nullptr;
  size_t total = len;
  while (len > 0) {
    OSKIT_ASSERT(m != nullptr);
    size_t n = m->len - offset;
    if (n > len) {
      n = len;
    }
    MBuf* piece = Piece(m, offset, n);
    if (head == nullptr) {
      head = piece;
    } else {
      tail->next = piece;
    }
    tail = piece;
    len -= n;
    offset = 0;
    m = m->next;
  }
  head->pkt_len = static_cast<uint32_t>(total);
  return head;
}

MBuf* MbufPool::AppendChain(MBuf* a, MBuf* b) {
  if (a == nullptr) {
    return b;
  }
  if (b == nullptr) {
    return a;
  }
  MBuf* tail = a;
  while (tail->next != nullptr) {
    tail = tail->next;
  }
  tail->next = b;
  a->pkt_len += b->pkt_len;
  b->pkt_len = 0;  // pkt_len lives on the head only
  return a;
}

MBuf* MbufPool::Split(MBuf* m, size_t offset) {
  if (offset >= m->pkt_len) {
    return nullptr;
  }
  uint32_t head_len = static_cast<uint32_t>(offset);
  uint32_t tail_len = m->pkt_len - head_len;
  // Walk to the mbuf containing byte `offset`.
  MBuf* prev = nullptr;
  MBuf* cur = m;
  size_t off = offset;
  while (cur != nullptr && off >= cur->len) {
    off -= cur->len;
    prev = cur;
    cur = cur->next;
  }
  OSKIT_ASSERT(cur != nullptr);
  MBuf* rest;
  if (off == 0 && prev != nullptr) {
    // Clean break between mbufs.
    rest = cur;
    prev->next = nullptr;
  } else {
    // Mid-mbuf split (or a split at byte 0, where `m` must stay the head):
    // the tail's first piece shares cluster/external storage; internal
    // bytes are copied out.
    MBuf* piece = Piece(cur, off, cur->len - off);
    piece->next = cur->next;
    cur->len = static_cast<uint32_t>(off);
    cur->next = nullptr;
    rest = piece;
  }
  m->pkt_len = head_len;
  rest->pkt_len = tail_len;
  return rest;
}

MBuf* MbufPool::Coalesce(MBuf* m, size_t max_count) {
  OSKIT_ASSERT(max_count >= 1);
  if (ChainCount(m) <= max_count) {
    return m;
  }
  // Keep the longest (header-bearing) prefix such that prefix mbufs plus
  // the flattened suffix — packed into clusters — fit under max_count.
  // Only the suffix bytes are copied, never the headers up front.
  size_t total = ChainLength(m);
  size_t keep = max_count - 1;  // mbufs of prefix to preserve
  size_t prefix_len = 0;
  size_t prefix_count = 0;
  for (const MBuf* c = m; c != nullptr && prefix_count < keep; c = c->next) {
    prefix_len += c->len;
    ++prefix_count;
  }
  size_t suffix_len = total - prefix_len;
  auto clusters_for = [](size_t n) {
    return n == 0 ? size_t{0} : (n + kClusterSize - 1) / kClusterSize;
  };
  while (prefix_count > 0 &&
         prefix_count + clusters_for(suffix_len) > max_count) {
    // Fold the last kept mbuf into the suffix and retry.
    const MBuf* c = m;
    for (size_t i = 1; i < prefix_count; ++i) {
      c = c->next;
    }
    prefix_len -= c->len;
    suffix_len += c->len;
    --prefix_count;
  }
  if (prefix_count + clusters_for(suffix_len) > max_count) {
    // Even ceil(len / cluster) clusters exceed max_count: the chain is
    // already minimal; the caller must fall back to its own bounce buffer.
    return m;
  }
  // Build the packed suffix from a deep copy, then splice it in.  A
  // zero-length packet made of empty mbufs collapses to one empty mbuf.
  MBuf* suffix = nullptr;
  if (suffix_len > 0 || prefix_count == 0) {
    suffix = FromData(nullptr, suffix_len);
    size_t off = prefix_len;
    for (MBuf* fresh = suffix; fresh != nullptr; fresh = fresh->next) {
      CopyData(m, off, fresh->len, fresh->data);
      off += fresh->len;
    }
    suffix->pkt_len = 0;
  }
  if (prefix_count == 0) {
    suffix->pkt_len = m->pkt_len;
    FreeChain(m);
    return suffix;
  }
  MBuf* last_kept = m;
  for (size_t i = 1; i < prefix_count; ++i) {
    last_kept = last_kept->next;
  }
  FreeChain(last_kept->next);
  last_kept->next = suffix;
  return m;
}

size_t MbufPool::ChainLength(const MBuf* m) {
  size_t n = 0;
  for (; m != nullptr; m = m->next) {
    n += m->len;
  }
  return n;
}

size_t MbufPool::ChainCount(const MBuf* m) {
  size_t n = 0;
  for (; m != nullptr; m = m->next) {
    ++n;
  }
  return n;
}

}  // namespace oskit::net
