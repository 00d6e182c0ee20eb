// BufIo <-> mbuf glue (paper §4.7.3).
//
// Outbound: an mbuf chain leaves the FreeBSD-idiom component as an opaque
// buffer object.  Map() keeps the paper's contract — it succeeds only for
// ranges that happen to be contiguous inside one mbuf — but the wrapper also
// implements BufIoVec, so a gather-capable consumer can Query for the
// scatter-gather view and transmit a multi-mbuf TCP segment without
// flattening it.  Whether to gather is the consumer's choice alone: one
// without gather support (the Linux glue over a driver with no
// hard_start_xmit_vec) lands on the Read()-based copy path into a
// contiguous skbuff — the send-path copy the original Table 1 measured.
// Either way the segment transmits; when a driver-side failure occurs
// (skbuff allocation, injected fault), the error propagates back through
// NetIo::Push to NetStack::EtherOutput, which counts it (net.tx.errors) —
// nothing is dropped silently.
//
// Inbound: MbufFromBufIo imports a foreign packet.  When the foreign object
// maps (a contiguous skbuff always does), the data is grafted into an mbuf
// as external storage with no copy — the receive path's zero-copy that makes
// OSKit receive bandwidth match native FreeBSD.  The external storage's
// context is the foreign object itself, and its address and length are the
// window mapped at offset 0.
//
// One MbufBufIo is made per transmitted frame, from a per-thread free list
// (src/base/free_list.h), so a warm stack wraps packets without a malloc
// call.

#ifndef OSKIT_SRC_NET_MBUF_BUFIO_H_
#define OSKIT_SRC_NET_MBUF_BUFIO_H_

#include "src/base/free_list.h"
#include "src/com/bufio.h"
#include "src/net/mbuf.h"

namespace oskit::net {

// Free-list high-water mark of MbufBufIo wrappers, one per transmitted
// frame and most often gone when NetIo::Push returns.
inline constexpr size_t kMbufBufIoCacheMax = 64;

class MbufBufIo final : public ComObject<MbufBufIo, BufIoVec, BufIo, BlkIo>,
                        public FreeListed<MbufBufIo, kMbufBufIoCacheMax> {
 public:
  // Takes ownership of `chain`; it returns to `pool` when the object dies.
  static ComPtr<MbufBufIo> Wrap(MbufPool* pool, MBuf* chain);

  // BlkIo
  uint32_t GetBlockSize() override { return 1; }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override;
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override;
  Error GetSize(off_t64* out_size) override;

  // BufIo: Map succeeds only within one contiguous mbuf.
  Error Map(void** out_addr, off_t64 offset, size_t amount) override;
  Error Unmap(void* addr, off_t64 offset, size_t amount) override;

  // BufIoVec: one segment per mbuf covering the range.  The chain is pinned
  // by this object's own lifetime, so Vectors/UnmapVectors are pure views.
  Error Vectors(BufIoSegment* out_segs, size_t cap, off_t64 offset,
                size_t amount, size_t* out_count) override;
  Error UnmapVectors(off_t64 offset, size_t amount) override;

  // The component-internal view (never exposed across the glue boundary).
  MBuf* chain() { return chain_; }

 private:
  friend class RefCounted<MbufBufIo>;
  MbufBufIo(MbufPool* pool, MBuf* chain) : pool_(pool), chain_(chain) {}
  ~MbufBufIo();

  MbufPool* pool_;
  MBuf* chain_;
};

// Imports `size` bytes of a foreign BufIo packet into an mbuf chain,
// mapping (zero copy) when possible and copying otherwise.  The returned
// chain holds a reference on `packet` until freed when zero-copy succeeded.
MBuf* MbufFromBufIo(MbufPool* pool, BufIo* packet, size_t size);

}  // namespace oskit::net

#endif  // OSKIT_SRC_NET_MBUF_BUFIO_H_
