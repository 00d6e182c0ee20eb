// Zero-on-demand host memory for large stores.
//
// An anonymous private mapping: every byte reads as zero, and a page costs
// host memory (and a zero-fill) only when first written.  The simulated
// machine's PhysMem arena and DiskHw platter sit on it, and so does
// MemBlkIo, so each pays for the bytes its users touch rather than for its
// configured size.  A fresh mapping is always page-aligned.
//
// Zero-on-demand is not free to *read*: the first read of a never-written
// page takes a minor fault too (the kernel maps its shared zero page).  A
// copy or scan that walks a whole store therefore pays one fault per page,
// written or not; to skip the untouched pages, the copier must know which
// ones were written (src/base/sparse_image.h).
//
// Every mapping ends in one PROT_NONE guard page, so an overrun past the
// page-rounded end faults in every build.  Under ASan the slack between
// size() and that end is poisoned as well, so a byte-precise overrun is
// still reported the way a heap buffer's redzone would report it.
//
// The bytes past size() always read as zero: Resize zeroes the slack it
// gives up, so a later grow shows a zero tail.

#ifndef OSKIT_SRC_BASE_ZERO_PAGES_H_
#define OSKIT_SRC_BASE_ZERO_PAGES_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/base/asan.h"
#include "src/base/panic.h"

namespace oskit {

class ZeroPages {
 public:
  explicit ZeroPages(size_t size) {
    OSKIT_ASSERT_MSG(Resize(size), "cannot map zero-on-demand memory");
  }
  ~ZeroPages() { Resize(0); }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  // Changes the size in place or by moving the mapping (mremap), so no
  // byte is copied.  Bytes below min(old, new) keep their values; bytes at
  // or above the old size read as zero.  May move data().  Returns false,
  // with nothing changed, when the host cannot map the new size.
  bool Resize(size_t size) {
    if (size == size_) {
      return true;
    }
    const size_t page = PageSize();
    const size_t old_span = RoundUp(size_, page);
    const size_t new_span = RoundUp(size, page);
    if (size != 0 && (new_span < size || new_span + page < new_span)) {
      return false;  // the rounding itself overflows
    }
    uint8_t* pages = data_;
    if (data_ == nullptr) {
      void* fresh = mmap(nullptr, new_span + page, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (fresh == MAP_FAILED) {
        return false;
      }
      pages = static_cast<uint8_t*>(fresh);
    } else if (size == 0) {
      ASAN_UNPOISON_MEMORY_REGION(data_ + size_, old_span - size_);
      munmap(data_, old_span + page);
      pages = nullptr;
    } else {
      ASAN_UNPOISON_MEMORY_REGION(data_ + size_, old_span - size_);
      if (size < size_) {
        std::memset(data_ + size, 0, new_span - size);
        if (new_span < old_span) {
          // The first page given up becomes the new guard, and a later grow
          // turns it back into data: drop its old bytes.
          madvise(data_ + new_span, page, MADV_DONTNEED);
        }
      }
      if (new_span != old_span) {
        // The guard is a mapping of its own: fold it back in so the whole
        // range remaps as one.
        Protect(data_ + old_span, PROT_READ | PROT_WRITE);
        void* moved = mremap(data_, old_span + page, new_span + page, MREMAP_MAYMOVE);
        if (moved == MAP_FAILED) {
          Protect(data_ + old_span, PROT_NONE);
          ASAN_POISON_MEMORY_REGION(data_ + size_, old_span - size_);
          return false;
        }
        pages = static_cast<uint8_t*>(moved);
      }
    }
    data_ = pages;
    size_ = size;
    if (data_ != nullptr) {
      if (new_span != old_span || old_span == 0) {
        Protect(data_ + new_span, PROT_NONE);
      }
      ASAN_POISON_MEMORY_REGION(data_ + size_, new_span - size_);
    }
    return true;
  }

 private:
  static size_t PageSize() {
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return page;
  }
  static size_t RoundUp(size_t n, size_t page) { return (n + page - 1) / page * page; }

  static void Protect(uint8_t* guard, int prot) {
    int rc = mprotect(guard, PageSize(), prot);
    OSKIT_ASSERT_MSG(rc == 0, "cannot set the guard page");
  }

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace oskit

#endif  // OSKIT_SRC_BASE_ZERO_PAGES_H_
