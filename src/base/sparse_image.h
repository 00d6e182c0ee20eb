// Which pages of a zero-on-demand store were written, and a read-only view
// that carries that knowledge to a copier.
//
// A store on ZeroPages (src/base/zero_pages.h) reads as zero wherever it was
// never written, but finding that out by reading costs a fault per page.  So
// the store records every write its owner makes through it in a PageSet (one
// bit per 4 KB page), and hands out a SparseImage: the bytes, the size and
// the set.  A copy through the image touches only the written pages, and a
// released store zeroes only those pages before it is parked for reuse.
// The set is a superset of the non-zero pages exactly when every change to
// the store goes through it, so an owner hands out its bytes read-only.

#ifndef OSKIT_SRC_BASE_SPARSE_IMAGE_H_
#define OSKIT_SRC_BASE_SPARSE_IMAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/panic.h"

namespace oskit {

class PageSet {
 public:
  static constexpr size_t kPageSize = 4096;

  PageSet() = default;
  explicit PageSet(size_t bytes) { Resize(bytes); }

  // Covers [0, bytes): grown pages start unmarked, and pages cut off are
  // forgotten.
  void Resize(size_t bytes) {
    const size_t pages = (bytes + kPageSize - 1) / kPageSize;
    words_.resize((pages + 63) / 64);
    if (pages % 64 != 0) {
      words_.back() &= (uint64_t{1} << (pages % 64)) - 1;
    }
  }

  // Marks every page that [offset, offset+len) touches; the range must lie
  // inside the bytes the set covers.
  void Mark(size_t offset, size_t len) {
    if (len == 0) {
      return;
    }
    const size_t last = (offset + len - 1) / kPageSize;
    OSKIT_ASSERT_MSG(last / 64 < words_.size(), "mark past the end of the page set");
    for (size_t p = offset / kPageSize; p <= last; ++p) {
      words_[p / 64] |= uint64_t{1} << (p % 64);
    }
  }

  // Unmarks every page `other` marks.
  void Remove(const PageSet& other) {
    for (size_t w = 0; w < words_.size() && w < other.words_.size(); ++w) {
      words_[w] &= ~other.words_[w];
    }
  }

  bool Contains(size_t page) const {
    return page / 64 < words_.size() && (words_[page / 64] >> (page % 64) & 1) != 0;
  }

  // Calls fn(offset, len) for each maximal run of marked pages, clipped to
  // [0, limit), in ascending order.  Skips 64 unmarked pages per word test.
  template <typename Fn>
  void ForEachRun(size_t limit, Fn fn) const {
    const size_t pages = (limit + kPageSize - 1) / kPageSize;
    size_t p = 0;
    while (p < pages) {
      uint64_t rest = words_[p / 64] >> (p % 64);
      if (rest == 0) {
        p = (p / 64 + 1) * 64;
        continue;
      }
      p += static_cast<size_t>(__builtin_ctzll(rest));
      if (p >= pages) {
        return;
      }
      size_t start = p;
      while (p < pages && Contains(p)) {
        ++p;
      }
      size_t end = p * kPageSize < limit ? p * kPageSize : limit;
      fn(start * kPageSize, end - start * kPageSize);
    }
  }

 private:
  std::vector<uint64_t> words_;
};

// A read-only view of a store: its bytes, its size and its written pages.
// Converts to the bare byte pointer, so code that only reads bytes keeps
// working unchanged.
class SparseImage {
 public:
  SparseImage(const uint8_t* data, size_t size, const PageSet* written)
      : data_(data), size_(size), written_(written) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const PageSet& written() const { return *written_; }
  operator const uint8_t*() const { return data_; }  // NOLINT: implicit by design

 private:
  const uint8_t* data_;
  size_t size_;
  const PageSet* written_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_BASE_SPARSE_IMAGE_H_
