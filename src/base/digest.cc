#include "src/base/digest.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/base/byteorder.h"

namespace oskit {
namespace {

constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;

uint64_t LaneStep(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kP2, 31) * kP1;
}

// Feeds whole stripes to the lanes.  The lanes are stepped as locals:
// stored through a pointer, every byte load from `p` could alias them.
void AddStripes(uint64_t* lanes, const uint8_t* p, size_t stripes) {
  uint64_t local[4] = {lanes[0], lanes[1], lanes[2], lanes[3]};
  for (; stripes > 0; --stripes, p += 32) {
    for (int k = 0; k < 4; ++k) {
      local[k] = LaneStep(local[k], LoadLe64(p + 8 * k));
    }
  }
  std::memcpy(lanes, local, sizeof(local));
}

}  // namespace

void IntegrityDigest::Add(const void* data, size_t length) {
  if (length == 0) {
    return;
  }
  const auto* p = static_cast<const uint8_t*>(data);
  size_t held = length_ % kStripe;
  length_ += length;
  if (held != 0) {
    size_t take = std::min(kStripe - held, length);
    std::memcpy(pending_ + held, p, take);
    if (held + take < kStripe) {
      return;
    }
    AddStripes(lanes_, pending_, 1);
    p += take;
    length -= take;
  }
  AddStripes(lanes_, p, length / kStripe);
  std::memcpy(pending_, p + length / kStripe * kStripe, length % kStripe);
}

uint64_t IntegrityDigest::Finish() const {
  // The held words feed lanes 0, 1, ... in turn; a partial word is
  // zero-padded.
  uint64_t lanes[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
  size_t held = length_ % kStripe;
  uint8_t tail[kStripe] = {};
  std::memcpy(tail, pending_, held);
  for (size_t k = 0; 8 * k < held; ++k) {
    lanes[k] = LaneStep(lanes[k], LoadLe64(tail + 8 * k));
  }
  uint64_t digest = length_;
  for (uint64_t lane : lanes) {
    digest = (digest ^ LaneStep(0, lane)) * kP1;
  }
  return digest;
}

uint64_t IntegrityDigestOf(const void* data, size_t length) {
  IntegrityDigest digest;
  digest.Add(data, length);
  return digest.Finish();
}

}  // namespace oskit
