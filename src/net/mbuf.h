// BSD-idiom network packet buffers: mbufs (paper §4.4.3, §4.7.3).
//
// The FreeBSD-derived stack's internal buffer abstraction — small fixed-size
// buffers chained into packets, with large payloads held in shared,
// reference-counted "clusters" or in external storage owned by someone else
// (that external form is how a received Linux skbuff, or a native NIC's RX
// buffer, is grafted into an mbuf without copying).  The implementation
// details of mbufs are "thoroughly known throughout" the BSD-idiom code in
// src/net, exactly as the paper describes, and are hidden from everything
// outside it by the BufIo glue.

#ifndef OSKIT_SRC_NET_MBUF_H_
#define OSKIT_SRC_NET_MBUF_H_

#include <cstddef>
#include <cstdint>

namespace oskit::net {

inline constexpr size_t kMbufSize = 256;        // whole mbuf, header included
inline constexpr size_t kClusterSize = 2048;    // MCLBYTES

struct MBuf;

// External storage descriptor: cluster or foreign buffer.
struct MExt {
  uint8_t* buf = nullptr;
  size_t size = 0;
  // Called when the last reference drops.  For clusters this returns the
  // cluster to the pool; for foreign buffers it releases the owner (e.g.
  // Unmap+Release of a BufIo).
  void (*free_fn)(void* ctx, uint8_t* buf, size_t size) = nullptr;
  void* free_ctx = nullptr;
  uint32_t refs = 0;
};

struct MBuf {
  MBuf* next = nullptr;       // next mbuf in this packet's chain
  MBuf* next_pkt = nullptr;   // next packet in a queue
  uint8_t* data = nullptr;    // start of valid data
  uint32_t len = 0;           // valid bytes at `data`
  uint32_t pkt_len = 0;       // whole-packet length (first mbuf only)
  MExt* ext = nullptr;        // external storage, or nullptr for internal

  // Usable internal data area.
  static constexpr size_t kDataSpace = kMbufSize - 64;
  uint8_t internal[kDataSpace];

  uint8_t* buf_start() { return ext != nullptr ? ext->buf : internal; }
  size_t buf_size() const {
    return ext != nullptr ? ext->size : kDataSpace;
  }
  const uint8_t* buf_start() const { return ext != nullptr ? ext->buf : internal; }

  // Headroom before `data`.
  size_t leading_space() const { return static_cast<size_t>(data - buf_start()); }
};

// Pool/statistics holder.  One per stack instance (per machine), so each
// machine's live counts and leak checks are its own.
//
// Like BSD's mfree/mclfree, freed mbufs, MExt headers and clusters go on
// LIFO free lists (up to kCacheMax of each) and are handed out again before
// the heap is asked, so a warm stack moves packets without a malloc call.
// The lists are the kit's per-thread FreeList (src/base/free_list.h), shared
// by every pool on the thread: a cluster one machine frees is the next one
// another takes.  Cached storage is poisoned under ASan, so a touch after
// Free is still a report; the statistics count only buffers handed out.
class MbufPool {
 public:
  MbufPool() = default;
  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;
  ~MbufPool();

  // A bare mbuf with data positioned at the buffer start.
  MBuf* Get();

  // A bare mbuf positioned so `payload_len` bytes sit at the END of the
  // buffer, leaving maximal headroom for lower-layer headers (BSD MH_ALIGN:
  // how TCP header mbufs avoid chain growth when IP/Ethernet prepend).
  MBuf* GetHeaderAligned(size_t payload_len);

  // An mbuf with a fresh 2K cluster attached.
  MBuf* GetCluster();

  // An mbuf whose data is foreign external storage; free_fn runs when the
  // chain is freed.  Zero-copy import path (§4.7.3).
  MBuf* GetExternal(uint8_t* buf, size_t size,
                    void (*free_fn)(void*, uint8_t*, size_t), void* ctx);

  // Frees one mbuf, dropping its external reference; returns `next`.
  MBuf* Free(MBuf* m);

  // Frees a whole chain.
  void FreeChain(MBuf* m);

  // ---- Chain operations (the BSD m_* family) ----

  // Prepends `len` bytes of space, allocating a new head mbuf if the
  // current head lacks headroom.  Returns the (possibly new) head.
  MBuf* Prepend(MBuf* m, size_t len);

  // Copies `len` bytes from `offset` within the chain into `dst`.
  void CopyData(const MBuf* m, size_t offset, size_t len, void* dst);

  // Builds a chain holding a copy of [src, src+len).
  MBuf* FromData(const void* src, size_t len);

  // Ensures the first `len` bytes of the packet are contiguous in the head
  // mbuf (BSD m_pullup).  Returns the new head, or nullptr on failure (the
  // chain is freed in that case, BSD style).
  MBuf* Pullup(MBuf* m, size_t len);

  // Removes `len` bytes from the front of the packet (m_adj positive).
  MBuf* TrimFront(MBuf* m, size_t len);

  // Truncates the packet to `len` total bytes (m_adj negative).
  void TrimTo(MBuf* m, size_t len);

  // Deep-copies a packet sub-range [offset, offset+len) into a new chain
  // (m_copym with M_COPYALL semantics when len == kCopyAll).
  static constexpr size_t kCopyAll = ~size_t{0};
  MBuf* CopyChain(const MBuf* m, size_t offset, size_t len);

  // Recomputes and returns the chain's total length.
  static size_t ChainLength(const MBuf* m);

  // ---- Statistics (exposed implementation, §4.6) ----
  uint64_t mbufs_out() const { return mbufs_live_; }
  uint64_t clusters_out() const { return clusters_live_; }
  uint64_t total_allocs() const { return total_allocs_; }

  // Free-list high-water mark, per kind: a fixed constant, as BSD's was.
  static constexpr size_t kCacheMax = 512;

 private:
  MExt* GetClusterExt();
  static void FreeClusterStorage(void* ctx, uint8_t* buf, size_t size);

  uint64_t mbufs_live_ = 0;
  uint64_t clusters_live_ = 0;
  uint64_t total_allocs_ = 0;
};

}  // namespace oskit::net

#endif  // OSKIT_SRC_NET_MBUF_H_
