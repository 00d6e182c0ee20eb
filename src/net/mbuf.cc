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
    MBuf* piece = Get();
    if (m->ext != nullptr) {
      piece->ext = m->ext;
      ++m->ext->refs;
      piece->data = m->data + offset;
    } else {
      std::memcpy(piece->data, m->data + offset, n);
    }
    piece->len = static_cast<uint32_t>(n);
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

size_t MbufPool::ChainLength(const MBuf* m) {
  size_t n = 0;
  for (; m != nullptr; m = m->next) {
    n += m->len;
  }
  return n;
}

}  // namespace oskit::net
