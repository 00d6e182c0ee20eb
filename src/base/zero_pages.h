// Zero-on-demand host memory for large stores, parked for reuse.
//
// An anonymous private mapping: every byte reads as zero, and a page costs
// host memory (and a zero-fill) only when first written.  The simulated
// machine's PhysMem arena and DiskHw platter sit on it, and so does
// MemBlkIo, so each pays for the bytes its users touch rather than for its
// configured size.  A mapping is always page-aligned.
//
// Zero-on-demand is not free to *read*: the first read of a never-written
// page takes a minor fault too (the kernel maps its shared zero page).  A
// copy or scan that walks a whole store therefore pays one fault per page,
// written or not; to skip the untouched pages, the copier must know which
// ones were written.  So the store keeps that set itself: an owner writes
// through MarkWritten(), which records the 4 KB pages it touches in a
// PageSet, and image() hands out the bytes read-only with that set
// (src/base/sparse_image.h).  An owner that needs a raw writable pointer
// takes untracked_data(); from then on the set may miss written pages.
//
// Parking.  Mapping a fresh store and faulting its pages in costs several
// times what a memset of a resident page costs, and a world built per
// operation makes the same stores again and again.  So a store released
// (destroyed, or resized to 0) whose bytes never escaped zeroes only its
// written pages and parks its mapping in a per-thread cache; when the cache
// already holds kParkedMax, the oldest parked mapping is unmapped to make
// room.  The next store of the same page span on that thread takes the
// newest such mapping back: no mmap, mprotect or munmap, and no first-touch
// fault on the pages written before.  Those pages stay resident only for
// one more owner: at release, the pages an earlier owner wrote and this one
// did not go back to the host (MADV_DONTNEED), so a parked mapping holds no
// more memory than its last owner wrote.  A parked mapping keeps its
// PROT_NONE guard page and is ASan-poisoned whole, so a touch through a
// stale pointer is still a report.  A store whose bytes escaped through
// untracked_data() (the PhysMem arena, a MemBlkIo whose data() was taken)
// is unmapped, as are the mappings still parked when a thread exits.
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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "src/base/asan.h"
#include "src/base/panic.h"
#include "src/base/sparse_image.h"

namespace oskit {

class ZeroPages {
 public:
  // How many released mappings one thread keeps parked for reuse.
  static constexpr size_t kParkedMax = 4;

  explicit ZeroPages(size_t size) {
    OSKIT_ASSERT_MSG(Resize(size), "cannot map zero-on-demand memory");
  }
  ~ZeroPages() { Resize(0); }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  // Records [offset, offset+len) as written and returns a writable pointer
  // to its first byte; the caller stores only inside that range.
  uint8_t* MarkWritten(size_t offset, size_t len) {
    OSKIT_ASSERT_MSG(offset <= size_ && len <= size_ - offset, "mark past the end of the store");
    written_.Mark(offset, len);
    return data_ + offset;
  }

  // Writable bytes the store cannot follow: what is stored through them is
  // in no written set, so this mapping is unmapped on release, never parked.
  uint8_t* untracked_data() {
    escaped_ = true;
    return data_;
  }

  // The bytes, read-only, with every page MarkWritten ever recorded.  The
  // set covers every non-zero page unless untracked_data() was taken.
  SparseImage image() const { return SparseImage(data_, size_, &written_); }

  // Mappings parked on this thread.
  static size_t parked() { return ThisThread().count; }

  // Changes the size in place or by moving the mapping (mremap), so no
  // byte is copied.  Bytes below min(old, new) keep their values; bytes at
  // or above the old size read as zero.  May move data().  Growing from 0
  // takes a parked mapping of the new span when there is one; shrinking to
  // 0 releases the mapping (see Parking, above).  Returns false, with
  // nothing changed, when the host cannot map the new size.
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
    if (data_ == nullptr) {
      if (!Unpark(new_span)) {
        void* fresh = mmap(nullptr, new_span + page, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (fresh == MAP_FAILED) {
          return false;
        }
        data_ = static_cast<uint8_t*>(fresh);
        Protect(data_ + new_span, PROT_NONE);
      }
      ASAN_UNPOISON_MEMORY_REGION(data_, size);
    } else if (size == 0) {
      Release(old_span);
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
        data_ = static_cast<uint8_t*>(moved);
        Protect(data_ + new_span, PROT_NONE);
      }
    }
    size_ = size;
    written_.Resize(size);  // pages cut off were zeroed or dropped above
    resident_.Resize(size);
    if (data_ != nullptr) {
      ASAN_POISON_MEMORY_REGION(data_ + size_, new_span - size_);
    }
    return true;
  }

 private:
  struct Parked {
    uint8_t* pages;
    size_t span;       // bytes before the guard page
    PageSet resident;  // the pages its last owner wrote, zeroed since
  };
  struct ParkedCache {
    Parked slots[kParkedMax];  // oldest first
    size_t count = 0;
    ~ParkedCache() {
      for (size_t i = 0; i < count; ++i) {
        Unmap(slots[i]);
      }
    }
    // Removes slots[i], keeping the rest in order.
    void Remove(size_t i) {
      std::move(slots + i + 1, slots + count, slots + i);
      --count;
    }
  };
  static ParkedCache& ThisThread() {
    thread_local ParkedCache cache;
    return cache;
  }

  static size_t PageSize() {
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return page;
  }
  static size_t RoundUp(size_t n, size_t page) { return (n + page - 1) / page * page; }

  static void Protect(uint8_t* guard, int prot) {
    int rc = mprotect(guard, PageSize(), prot);
    OSKIT_ASSERT_MSG(rc == 0, "cannot set the guard page");
  }

  static void Unmap(const Parked& parked) {
    ASAN_UNPOISON_MEMORY_REGION(parked.pages, parked.span);
    munmap(parked.pages, parked.span + PageSize());
  }

  // Takes this thread's newest parked mapping of `span` bytes.  False when
  // there is none.
  bool Unpark(size_t span) {
    ParkedCache& cache = ThisThread();
    for (size_t i = cache.count; i-- > 0;) {
      if (cache.slots[i].span == span) {
        data_ = cache.slots[i].pages;
        resident_ = std::move(cache.slots[i].resident);
        cache.Remove(i);
        return true;
      }
    }
    return false;
  }

  // Parks the mapping, or unmaps it when its bytes escaped.  Every page
  // outside the written set still reads as zero, so zeroing the set's pages
  // leaves the mapping reading as a fresh one would; the pages only an
  // earlier owner wrote go back to the host.
  void Release(size_t span) {
    ASAN_UNPOISON_MEMORY_REGION(data_ + size_, span - size_);
    if (escaped_) {
      munmap(data_, span + PageSize());
    } else {
      resident_.Remove(written_);
      resident_.ForEachRun(size_, [this](size_t offset, size_t len) {
        madvise(data_ + offset, len, MADV_DONTNEED);
      });
      written_.ForEachRun(size_, [this](size_t offset, size_t len) {
        std::memset(data_ + offset, 0, len);
      });
      ASAN_POISON_MEMORY_REGION(data_, span);
      ParkedCache& cache = ThisThread();
      if (cache.count == kParkedMax) {
        Unmap(cache.slots[0]);
        cache.Remove(0);
      }
      cache.slots[cache.count++] = {data_, span, std::move(written_)};
    }
    data_ = nullptr;
    escaped_ = false;
  }

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  PageSet written_;       // every page MarkWritten recorded, below size_
  PageSet resident_;      // pages an earlier owner wrote, zeroed since
  bool escaped_ = false;  // untracked_data() was taken for this mapping
};

}  // namespace oskit

#endif  // OSKIT_SRC_BASE_ZERO_PAGES_H_
