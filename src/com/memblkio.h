// RAM-backed BufIo implementation.
//
// Serves as the OSKit's RAM-disk object: it backs the boot-module filesystem
// (§6.2.2), provides the buffered-object example from §4.4.2 (supports the
// extended BufIo interface where a raw disk driver supports only BlkIo), and
// is the workhorse storage object in tests.
//
// The bytes live on zero-on-demand pages (src/base/zero_pages.h): resizing
// is one mremap, and a page costs host memory only once written.  Write,
// Map (the whole window, as the caller may store through it), CreateFrom
// and SetSize keep the store's written-page set, so a released object
// zeroes just those pages and parks its mapping, and the next object of the
// same page span on the thread takes it with no mmap and no first-touch
// fault.  Taking the mutable data() opts out: the store cannot follow
// those stores, so the mapping is unmapped on release.  CreateFrom a
// SparseImage copies only the pages its source wrote — how a post-crash
// disk image becomes a MemBlkIo without a pass over the whole platter.

#ifndef OSKIT_SRC_COM_MEMBLKIO_H_
#define OSKIT_SRC_COM_MEMBLKIO_H_

#include <cstdint>

#include "src/base/sparse_image.h"
#include "src/base/zero_pages.h"
#include "src/com/bufio.h"

namespace oskit {

class MemBlkIo final
    : public ComObject<MemBlkIo, BufIo, BlkIo, BlkIoBarrier> {
 public:
  // Creates an object of `size` zero bytes.  `block_size` is the advertised
  // granularity (1 for byte-addressable RAM objects).
  static ComPtr<MemBlkIo> Create(size_t size, uint32_t block_size = 1);

  // Creates an object holding a copy of [data, data+size), for buffers the
  // caller owns.
  static ComPtr<MemBlkIo> CreateFrom(const void* data, size_t size,
                                     uint32_t block_size = 1);

  // Creates an object holding a copy of the image's first `size` bytes
  // (size <= image.size()), copying only the image's written pages.
  static ComPtr<MemBlkIo> CreateFrom(const SparseImage& image, size_t size,
                                     uint32_t block_size = 1);

  // BlkIo
  uint32_t GetBlockSize() override { return block_size_; }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override;
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override;
  Error GetSize(off_t64* out_size) override;
  Error SetSize(off_t64 new_size) override;

  // BufIo
  Error Map(void** out_addr, off_t64 offset, size_t amount) override;
  Error Unmap(void* addr, off_t64 offset, size_t amount) override;

  // BlkIoBarrier: RAM is "durable" the moment a Write returns.
  Error Flush() override { return Error::kOk; }

  // Direct access for owners (open implementation, §4.6).  The object is
  // unmapped, not parked, once its mutable bytes were taken.
  uint8_t* data() { return store_.untracked_data(); }
  size_t size() const { return store_.size(); }

 private:
  friend class RefCounted<MemBlkIo>;
  MemBlkIo(size_t size, uint32_t block_size);
  ~MemBlkIo() = default;

  ZeroPages store_;
  uint32_t block_size_;
  uint32_t maps_outstanding_ = 0;
};

}  // namespace oskit

#endif  // OSKIT_SRC_COM_MEMBLKIO_H_
