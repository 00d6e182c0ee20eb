#include "src/base/checksum.h"

#include <cstring>

#include "src/base/byteorder.h"

namespace oskit {
namespace {

// Folds a sum of 16-bit words to 16 bits, adding each carry back in.
uint64_t Fold(uint64_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return sum;
}

uint64_t Swap16(uint64_t folded) { return ((folded & 0xff) << 8) | (folded >> 8); }

uint64_t Halves(uint64_t word) { return (word & 0xffffffff) + (word >> 32); }

}  // namespace

// RFC 1071 §2: the one's-complement sum does not depend on byte order and
// may defer its carries.  Each 8-byte little-endian word adds its two 32-bit
// halves to a 64-bit sum, which cannot wrap within 2^31 words (16 GiB).  A
// byte at an even stream offset is thus a word's low half, and Finish swaps
// the folded sum into network order once.  A call that starts at an odd
// offset has its halves the other way round, so its sum is swapped as it
// joins `sum_`.
void InetChecksum::Add(const void* data, size_t length) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t sum = 0;
  for (; length >= 8; p += 8, length -= 8) {
    sum += Halves(LoadLe64(p));
  }
  if (length > 0) {
    uint8_t tail[8] = {};
    std::memcpy(tail, p, length);
    sum += Halves(LoadLe64(tail));
  }
  sum_ += odd_ ? Swap16(Fold(sum)) : Fold(sum);
  odd_ ^= (length & 1) != 0;  // the loop kept the length's parity
}

uint16_t InetChecksum::Finish() const {
  return static_cast<uint16_t>(~Swap16(Fold(sum_)) & 0xffff);
}

uint16_t InetChecksumOf(const void* data, size_t length) {
  InetChecksum cksum;
  cksum.Add(data, length);
  return cksum.Finish();
}

}  // namespace oskit
