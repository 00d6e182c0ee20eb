// Buffered I/O interface — the paper's bufio extension to blkio (§4.4.2).
//
// BufIo adds direct pointer-based access ("map") for the common case where
// the object's data happens to live in contiguous local memory.  Network
// packets cross component boundaries as BufIo objects: the Linux driver glue
// wraps an SkBuff as a BufIo, the FreeBSD stack glue wraps an MBuf chain as a
// BufIo, and each side Maps the other's buffer when it is contiguous and
// falls back to Read/Write copies when it is not (§4.7.3).  Historically that
// asymmetry — map on receive, copy on send — was the mechanism behind
// Table 1.  BufIoVec below is the §4.4.2-style interface extension that
// closes the send side: a buffer object that is contiguous only piecewise
// (an mbuf chain) can publish its pieces as a scatter-gather vector, and a
// consumer with gather-capable DMA transmits them without flattening.

#ifndef OSKIT_SRC_COM_BUFIO_H_
#define OSKIT_SRC_COM_BUFIO_H_

#include "src/com/blkio.h"

namespace oskit {

class BufIo : public BlkIo {
 public:
  static constexpr Guid kIid = MakeGuid(0xa24f6238, 0x0da1, 0x11d0, 0xa6, 0xbe, 0x00,
                                        0xa0, 0xc9, 0x0a, 0x5f, 0x2d);

  // Attempts to obtain a direct pointer to bytes [offset, offset+amount).
  // Succeeds only when that range is stored contiguously in local memory;
  // otherwise returns kNotImpl and the caller must fall back to Read().
  // A successful Map() pins the buffer until the matching Unmap().
  virtual Error Map(void** out_addr, off_t64 offset, size_t amount) = 0;

  // Releases a mapping obtained from Map().
  virtual Error Unmap(void* addr, off_t64 offset, size_t amount) = 0;

  // Ensures the data is resident/pinned for DMA-style access (advisory in
  // this reproduction: memory-backed objects keep these kOk defaults).
  virtual Error Wire() { return Error::kOk; }
  virtual Error Unwire() { return Error::kOk; }

 protected:
  ~BufIo() = default;
};

// One contiguous piece of a scatter-gather view.
struct BufIoSegment {
  const uint8_t* data = nullptr;
  size_t len = 0;
};

// Scatter-gather extension of BufIo (new GUID, discovered via Query — the
// paper's §4.4.2 evolution idiom: old consumers keep working against BufIo,
// new consumers ask for BufIoVec and use the vector when the object grants
// it).  The segments point into the object's own storage; like Map, a
// successful Vectors() pins the buffer until UnmapVectors().
class BufIoVec : public BufIo {
 public:
  static constexpr Guid kIid = MakeGuid(0xa24f6239, 0x0da1, 0x11d0, 0xa6, 0xbe, 0x00,
                                        0xa0, 0xc9, 0x0a, 0x5f, 0x2d);

  // Fills out_segs[0..*out_count) with the contiguous pieces covering bytes
  // [offset, offset+amount).  Returns kNotImpl when the range would need
  // more than `cap` segments (the caller falls back to Read).
  virtual Error Vectors(BufIoSegment* out_segs, size_t cap, off_t64 offset,
                        size_t amount, size_t* out_count) = 0;

  // Releases the pin taken by a successful Vectors() call.
  virtual Error UnmapVectors(off_t64 offset, size_t amount) = 0;

 protected:
  ~BufIoVec() = default;
};

}  // namespace oskit

#endif  // OSKIT_SRC_COM_BUFIO_H_
