// RFC 1071 Internet checksum, used by the IP/ICMP/UDP/TCP layers.

#ifndef OSKIT_SRC_BASE_CHECKSUM_H_
#define OSKIT_SRC_BASE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace oskit {

// Incremental checksum accumulator: feed byte ranges (possibly at odd
// offsets, as happens with chained mbufs), then Finish() to fold.  It sums
// eight bytes a step (see checksum.cc).
class InetChecksum {
 public:
  // Adds `length` bytes.  Handles a dangling odd byte between calls so that
  // discontiguous buffer chains sum identically to a flat buffer.
  void Add(const void* data, size_t length);

  // Folds carries and returns the one's-complement result in network order
  // semantics (i.e. ready to store into a header with StoreBe16... the value
  // returned is already the final 16-bit checksum field in host order).
  uint16_t Finish() const;

 private:
  uint64_t sum_ = 0;  // folded call sums, a stream-even byte as the low half
  bool odd_ = false;  // true when the bytes added so far are odd in number
};

// One-shot helper over a flat buffer.
uint16_t InetChecksumOf(const void* data, size_t length);

}  // namespace oskit

#endif  // OSKIT_SRC_BASE_CHECKSUM_H_
