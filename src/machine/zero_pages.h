// Zero-on-demand host memory for the simulated machine's large stores.
//
// An anonymous private mapping: every byte reads as zero, and a page costs
// host memory (and a zero-fill) only when first written.  PhysMem's arena
// and DiskHw's platter sit on it, so a machine pays for the bytes its
// software touches rather than for its configured size.  A fresh mapping
// is always page-aligned.

#ifndef OSKIT_SRC_MACHINE_ZERO_PAGES_H_
#define OSKIT_SRC_MACHINE_ZERO_PAGES_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>

#include "src/base/panic.h"

namespace oskit {

class ZeroPages {
 public:
  explicit ZeroPages(size_t size) : size_(size) {
    if (size == 0) {
      return;
    }
    void* pages = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    OSKIT_ASSERT_MSG(pages != MAP_FAILED, "cannot map zero-on-demand memory");
    data_ = static_cast<uint8_t*>(pages);
  }
  ~ZeroPages() {
    if (data_ != nullptr) {
      munmap(data_, size_);
    }
  }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_ZERO_PAGES_H_
