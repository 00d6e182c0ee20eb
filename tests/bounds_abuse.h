// Shared bounds-abuse suite for byte-range IO surfaces.
//
// Holds anything with BlkIo-shaped methods (BlkIo, BufIo, BufIoVec, File,
// the aio stack layers...) to the byte-range contract stated once at
// ClampRange and CheckWindow in src/com/blkio.h: `off_t64` is unsigned, so a
// "negative" offset arrives huge and `offset + amount` can wrap past the
// bound it was meant to enforce.  That bug class was found three separate
// times, on the packet buffers, on MapRange/Translate, and on the IDE glue,
// partition views and FFS file IO, before the contract was written once.
// New surfaces get the suite for free: instantiate the helpers from the
// module's own test with a live object and its size.

#ifndef OSKIT_TESTS_BOUNDS_ABUSE_H_
#define OSKIT_TESTS_BOUNDS_ABUSE_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "src/base/error.h"
#include "src/com/bufio.h"

namespace oskit::testing {

// How the surface reports an offset strictly past the object.
enum class PastEnd {
  kOutOfRange,  // device-style: Read/Write past the end is an error
  kEofOk,       // file-style: reads past EOF succeed with 0 bytes
};

namespace internal {

inline bool IsPastEndResult(Error err, size_t actual, PastEnd style) {
  if (err == Error::kOutOfRange || err == Error::kInval) {
    return actual == 0;
  }
  return style == PastEnd::kEofOk && err == Error::kOk && actual == 0;
}

}  // namespace internal

// Hammers Read with the wrap class.  `size` is the object's current byte
// size and must be >= 2 so an in-range wrapping offset exists.
template <typename IoT>
void AbuseReadBounds(IoT* io, uint64_t size,
                     PastEnd style = PastEnd::kOutOfRange) {
  ASSERT_GE(size, 2u) << "bounds abuse needs a 2+ byte object";
  uint8_t buf[64];

  // A "negative" offset arrives huge.
  size_t actual = 99;
  Error err = io->Read(buf, ~uint64_t{0} - 7, sizeof(buf), &actual);
  EXPECT_TRUE(internal::IsPastEndResult(err, actual, style))
      << "huge offset: err=" << static_cast<int>(err) << " actual=" << actual;

  // Genuine wrap from a small in-range offset: offset + amount overflows.
  actual = 99;
  err = io->Read(buf, 1, ~size_t{0}, &actual);
  EXPECT_EQ(err, Error::kInval) << "wrapping range must be kInval";
  EXPECT_EQ(actual, 0u);

  // Wrap from just under the end of the object.
  actual = 99;
  err = io->Read(buf, size - 1, ~size_t{0}, &actual);
  EXPECT_EQ(err, Error::kInval) << "wrapping range at object end";
  EXPECT_EQ(actual, 0u);

  // The exact boundary offset is legal: zero bytes remain.
  actual = 99;
  err = io->Read(buf, size, 0, &actual);
  EXPECT_TRUE(err == Error::kOk || err == Error::kOutOfRange)
      << "boundary offset: err=" << static_cast<int>(err);
  EXPECT_EQ(actual, 0u);

  // A sane read still works after the abuse (nothing was scribbled).
  actual = 0;
  err = io->Read(buf, 0, 1, &actual);
  EXPECT_EQ(err, Error::kOk);
  EXPECT_EQ(actual, 1u);
}

// Same suite for Write.  Writes one byte of the object's own first byte at
// the end, so the object's contents are unchanged by a passing run.
template <typename IoT>
void AbuseWriteBounds(IoT* io, uint64_t size,
                      PastEnd style = PastEnd::kOutOfRange) {
  ASSERT_GE(size, 2u) << "bounds abuse needs a 2+ byte object";
  uint8_t buf[64] = {};

  size_t actual = 99;
  Error err = io->Write(buf, ~uint64_t{0} - 7, sizeof(buf), &actual);
  EXPECT_TRUE(internal::IsPastEndResult(err, actual, style))
      << "huge offset: err=" << static_cast<int>(err) << " actual=" << actual;

  actual = 99;
  err = io->Write(buf, 1, ~size_t{0}, &actual);
  EXPECT_EQ(err, Error::kInval) << "wrapping range must be kInval";
  EXPECT_EQ(actual, 0u);

  actual = 99;
  err = io->Write(buf, size - 1, ~size_t{0}, &actual);
  EXPECT_EQ(err, Error::kInval) << "wrapping range at object end";
  EXPECT_EQ(actual, 0u);

  // Round-trip an existing byte to prove valid writes still land.
  uint8_t keep = 0;
  actual = 0;
  ASSERT_EQ(io->Read(&keep, 0, 1, &actual), Error::kOk);
  ASSERT_EQ(actual, 1u);
  ASSERT_EQ(io->Write(&keep, 0, 1, &actual), Error::kOk);
  EXPECT_EQ(actual, 1u);
}

// Same suite for a window check (Map, Vectors): the whole window must lie
// inside the object.  `map(offset, amount)` returns the surface's answer
// and releases whatever a success pinned; MapWindow and VectorsWindow build
// it for the two BufIo shapes.
template <typename MapFn>
void AbuseMapBounds(MapFn map, uint64_t size) {
  ASSERT_GE(size, 2u) << "bounds abuse needs a 2+ byte object";

  // Windows past the end: a huge offset, an offset one past the object, and
  // an in-range offset whose window runs one byte over.
  EXPECT_EQ(map(~uint64_t{0} - 7, 1), Error::kOutOfRange) << "huge offset";
  EXPECT_EQ(map(size + 1, 0), Error::kOutOfRange) << "offset past the end";
  EXPECT_EQ(map(size - 1, 2), Error::kOutOfRange) << "window past the end";

  // Windows whose `offset + amount` wraps.
  EXPECT_EQ(map(1, ~size_t{0}), Error::kInval) << "wrapping window";
  EXPECT_EQ(map(size - 1, ~size_t{0}), Error::kInval)
      << "wrapping window at object end";

  // The exact tail maps.
  EXPECT_EQ(map(size - 1, 1), Error::kOk) << "the last byte";
}

template <typename IoT>
auto MapWindow(IoT* io) {
  return [io](uint64_t offset, size_t amount) {
    void* addr = nullptr;
    Error err = io->Map(&addr, offset, amount);
    if (err == Error::kOk) {
      io->Unmap(addr, offset, amount);
    }
    return err;
  };
}

template <typename IoT>
auto VectorsWindow(IoT* io) {
  return [io](uint64_t offset, size_t amount) {
    BufIoSegment segs[16];
    size_t count = 0;
    Error err = io->Vectors(segs, 16, offset, amount, &count);
    if (err == Error::kOk) {
      io->UnmapVectors(offset, amount);
    }
    return err;
  };
}

}  // namespace oskit::testing

#endif  // OSKIT_TESTS_BOUNDS_ABUSE_H_
