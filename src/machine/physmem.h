// Simulated physical memory.
//
// One contiguous host allocation stands in for the PC's physical address
// space.  "Physical addresses" are offsets into the arena, which lets the
// LMM manage typed regions (the first 16 MB is DMA-reachable for the ISA
// DMA controller — the paper's motivating example in §3.3) and lets device
// models check that DMA buffers really are reachable.
//
// The arena's pages are zero-on-demand (src/base/zero_pages.h): every
// byte reads as zero until written, and a machine costs host memory only
// for the pages its kernel and devices actually touch.  The kernel stores
// through raw pointers the arena cannot follow, so it is unmapped, never
// parked for reuse, when the machine goes.

#ifndef OSKIT_SRC_MACHINE_PHYSMEM_H_
#define OSKIT_SRC_MACHINE_PHYSMEM_H_

#include <cstddef>
#include <cstdint>

#include "src/base/error.h"
#include "src/base/panic.h"
#include "src/base/zero_pages.h"

namespace oskit {

using PhysAddr = uint64_t;

class MemMonitor;  // src/machine/memmon.h

class PhysMem {
 public:
  static constexpr PhysAddr kBiosAreaEnd = 1 * 1024 * 1024;    // low 1 MB
  static constexpr PhysAddr kDmaLimit = 16 * 1024 * 1024;      // ISA DMA reach

  static constexpr size_t kPageAlign = 4096;

  // The arena is page-aligned so that "physical" offsets and host pointers
  // agree about page boundaries (page tables, DMA and the LMM's AllocPage
  // all rely on this).
  explicit PhysMem(size_t size) : arena_(size), base_(arena_.untracked_data()), size_(size) {
    OSKIT_ASSERT_MSG(size >= 2 * 1024 * 1024, "machine needs at least 2 MB");
  }

  size_t size() const { return size_; }
  uint8_t* base() { return base_; }

  void* PtrAt(PhysAddr addr) {
    OSKIT_ASSERT_MSG(addr < size_, "physical address out of range");
    return base_ + addr;
  }

  PhysAddr AddrOf(const void* ptr) const {
    auto p = static_cast<const uint8_t*>(ptr);
    OSKIT_ASSERT_MSG(p >= base_ && p < base_ + size_,
                     "pointer not in physical memory");
    return static_cast<PhysAddr>(p - base_);
  }

  bool Contains(const void* ptr, size_t len) const {
    auto p = static_cast<const uint8_t*>(ptr);
    return p >= base_ && p + len <= base_ + size_;
  }

  // True when [ptr, ptr+len) can be reached by the ISA DMA controller.
  bool IsDmaReachable(const void* ptr, size_t len) const {
    if (!Contains(ptr, len)) {
      return false;
    }
    return AddrOf(ptr) + len <= kDmaLimit;
  }

  // ---- Checked entry points (src/machine/memmon.h) ----
  // With no attached (or not yet enabled) memory monitor these are
  // bounds-checked memcpys — the open 1997 world.  With a monitor they are
  // the kernel-level store and the device DMA write, subject to the
  // per-page protection map: kFault on out-of-range/wrapping spans,
  // kAccess on a protection violation (nothing written; the violation is
  // counted and raised through the trap vectors).  Defined in memmon.cc.
  Error Store(PhysAddr addr, const void* src, size_t len);
  Error Dma(PhysAddr addr, const void* src, size_t len);

  void AttachMonitor(MemMonitor* monitor) { monitor_ = monitor; }
  MemMonitor* monitor() const { return monitor_; }

 private:
  ZeroPages arena_;
  uint8_t* base_;
  size_t size_;
  MemMonitor* monitor_ = nullptr;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_PHYSMEM_H_
