// Block I/O interface — the C++ rendering of the paper's Figure 2.
//
// Implemented by disk device drivers, partition views, RAM disks, and the
// boot-module filesystem's backing objects.  Offsets and sizes are in bytes;
// implementations may require them to be multiples of GetBlockSize().

#ifndef OSKIT_SRC_COM_BLKIO_H_
#define OSKIT_SRC_COM_BLKIO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/com/iunknown.h"

namespace oskit {

using off_t64 = uint64_t;

class BlkIo : public IUnknown {
 public:
  // Matches the paper's BLKIO_IID: GUID(0x4aa7dfe1, 0x7c74, 0x11cf, ...).
  static constexpr Guid kIid = MakeGuid(0x4aa7dfe1, 0x7c74, 0x11cf, 0xb5, 0x00, 0x08,
                                        0x00, 0x09, 0x53, 0xad, 0xc2);

  // Granularity of the underlying device; reads/writes must be aligned to it.
  virtual uint32_t GetBlockSize() = 0;

  // Reads `amount` bytes starting at `offset` into `buf`.  Stores the number
  // of bytes actually read (short at end-of-object) into *out_actual.
  virtual Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) = 0;

  // Writes `amount` bytes from `buf` at `offset`.
  virtual Error Write(const void* buf, off_t64 offset, size_t amount,
                      size_t* out_actual) = 0;

  // Total size of the object in bytes.
  virtual Error GetSize(off_t64* out_size) = 0;

  // Resizes the object; fixed-size objects keep this default.
  virtual Error SetSize(off_t64 new_size) { return Error::kNotImpl; }

 protected:
  ~BlkIo() = default;
};

// The byte-range contract of every BlkIo-shaped surface (BlkIo, BufIo,
// BufIoVec, File and the layers stacked on them).  off_t64 is unsigned, so a
// "negative" offset arrives huge and `offset + amount` can wrap:
//   - an offset past `size` is kOutOfRange;
//   - a range whose `offset + amount` wraps is kInval, never a short
//     transfer;
//   - anything else is in range: ClampRange shortens a Read/Write to the
//     bytes below `size`, and CheckWindow is kOutOfRange unless the whole
//     Map/Vectors window lies below `size`.
// File-style surfaces test `offset >= size` (EOF) themselves first.  A
// surface with no end of its own (a growing file, a layer whose device
// enforces the end) passes ~off_t64{0}, so only a wrap is refused.
inline Error ClampRange(off_t64 size, off_t64 offset, size_t* amount) {
  if (offset > size) {
    return Error::kOutOfRange;
  }
  if (offset + *amount < offset) {
    return Error::kInval;
  }
  *amount = std::min<off_t64>(*amount, size - offset);
  return Error::kOk;
}

inline Error CheckWindow(off_t64 size, off_t64 offset, size_t amount) {
  size_t inside = amount;
  Error err = ClampRange(size, offset, &inside);
  return Ok(err) && inside != amount ? Error::kOutOfRange : err;
}

// Flush/barrier extension of the block boundary (new GUID, discovered via
// Query — the §4.4.2 evolution idiom, like BufIoVec over BufIo): a client
// that needs a durability point asks the device for BlkIoBarrier; devices
// without a volatile write cache simply don't export it (or export it as a
// timed no-op) and old consumers keep working against plain BlkIo.
//
// It derives IUnknown rather than BlkIo so implementations that already
// expose BlkIo through another path (BufIo, Device) can add it without a
// diamond; callers always reach it through Query on the same object.
class BlkIoBarrier : public IUnknown {
 public:
  static constexpr Guid kIid = MakeGuid(0x4aa7dfe2, 0x7c74, 0x11cf, 0xb5, 0x00, 0x08,
                                        0x00, 0x09, 0x53, 0xad, 0xc2);

  // Returns once every write acknowledged before this call is durable: will
  // survive a power cut.  The ordering primitive journaling builds on.
  virtual Error Flush() = 0;

 protected:
  ~BlkIoBarrier() = default;
};

}  // namespace oskit

#endif  // OSKIT_SRC_COM_BLKIO_H_
