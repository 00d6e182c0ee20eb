// The kit's 64-bit integrity digest: the journal's on-disk checksums and
// the checksum layer's volatile per-granule table both use it.
//
// Four independent lanes consume the input a little-endian 64-bit word at
// a time (word i feeds lane i % 4), so their multiplies overlap instead of
// one dependent multiply per byte.  A lane step
//   lane -> rotl(lane + word * kP2, 31) * kP1
// is a bijection of the lane for a fixed word and of the word for a fixed
// lane, and the final merge, seeded with the byte length, is a bijection of
// each lane with the others fixed.  So two equal-length inputs that differ
// in exactly one 8-byte word (or in the zero-padded tail) always digest
// differently.  It detects corruption, not tampering: no cryptography.

#ifndef OSKIT_SRC_BASE_DIGEST_H_
#define OSKIT_SRC_BASE_DIGEST_H_

#include <cstddef>
#include <cstdint>

namespace oskit {

// Streaming accumulator: feed byte ranges of any length, then Finish().
// The result equals IntegrityDigestOf over the concatenated input, however
// it was split.
class IntegrityDigest {
 public:
  void Add(const void* data, size_t length);
  uint64_t Finish() const;

 private:
  static constexpr size_t kStripe = 32;  // one word for each lane

  uint64_t lanes_[4] = {1, 2, 3, 4};
  uint64_t length_ = 0;
  uint8_t pending_[kStripe];  // the last length_ % kStripe bytes added
};

// One-shot helper over a flat buffer.
uint64_t IntegrityDigestOf(const void* data, size_t length);

}  // namespace oskit

#endif  // OSKIT_SRC_BASE_DIGEST_H_
