// List Memory Manager (paper §3.3).
//
// The LMM manages allocation of physical (or virtual) memory across multiple
// "regions" of different types.  Each region carries a flag word describing
// its properties (e.g., DMA-reachable below 16 MB, below 1 MB for BIOS-era
// structures) and a priority; allocations name the flags they REQUIRE and
// are satisfied from the highest-priority qualifying region, so scarce
// memory types (DMA pages) are preserved unless explicitly requested.
//
// Faithful to the original in the properties client code depends on:
//  * free-list bookkeeping lives INSIDE the free memory itself — the manager
//    allocates nothing;
//  * regions are caller-provided storage (LmmRegion), so the LMM can run
//    before any allocator exists;
//  * AllocGen supports arbitrary power-of-two alignment with an offset, and
//    address-range bounds, the constraints device drivers need (§3.3);
//  * the free list is walkable and specific ranges can be reserved/returned
//    (RemoveFree/AddFree) — the "open implementation" surface (§4.6).

#ifndef OSKIT_SRC_LMM_LMM_H_
#define OSKIT_SRC_LMM_LMM_H_

#include <cstddef>
#include <cstdint>

#include "src/fault/fault.h"
#include "src/trace/trace.h"

namespace oskit {

// Flag bits are client-defined; these are the conventional x86 PC ones.
inline constexpr uint32_t kLmmFlag1Mb = 0x01;   // below 1 MB (BIOS/real-mode)
inline constexpr uint32_t kLmmFlag16Mb = 0x02;  // below 16 MB (ISA DMA)

inline constexpr size_t kLmmPageSize = 4096;

// Caller-provided region descriptor.  Must outlive the Lmm.
struct LmmRegion {
  LmmRegion* next = nullptr;  // regions, sorted by descending priority
  struct FreeBlock* free_list = nullptr;
  uintptr_t min = 0;  // [min, max) address range this region covers
  uintptr_t max = 0;
  uint32_t flags = 0;
  int32_t priority = 0;
  size_t free_bytes = 0;
};

// Free-list node, stored in the free memory itself (address order).
struct FreeBlock {
  FreeBlock* next;
  size_t size;
};

class Lmm {
 public:
  // Minimum granule: every free block must be able to hold a FreeBlock.
  static constexpr size_t kMinSize = sizeof(FreeBlock);

  Lmm() = default;
  Lmm(const Lmm&) = delete;
  Lmm& operator=(const Lmm&) = delete;

  // Registers a region covering [base, base+size).  The memory itself is NOT
  // made available until AddFree() — regions describe address ranges, not
  // free memory.
  void AddRegion(LmmRegion* region, void* base, size_t size, uint32_t flags,
                 int32_t priority);

  // Donates [base, base+size) to the free pool.  The range may span several
  // regions (the x86 kernel support library hands the LMM all of physical
  // memory in one call); each overlap goes to its region.  Portions covered
  // by no region are ignored.
  void AddFree(void* base, size_t size);

  // Reserves a specific address range, removing any free parts of it from
  // the pool (used to protect boot modules, the kernel image, etc.).
  void RemoveFree(void* base, size_t size);

  // Allocates `size` bytes from the highest-priority region whose flags
  // contain all bits in `flags`.  Returns nullptr on failure.
  void* Alloc(size_t size, uint32_t flags);

  // Allocates with alignment: the low `align_bits` bits of the returned
  // address will equal the low bits of `align_ofs`.
  void* AllocAligned(size_t size, uint32_t flags, unsigned align_bits,
                     uintptr_t align_ofs);

  // Fully general allocation: alignment plus an address-range constraint
  // [bounds_min, bounds_min+bounds_size).  Pass bounds_size == 0 for
  // unconstrained.
  void* AllocGen(size_t size, uint32_t flags, unsigned align_bits,
                 uintptr_t align_ofs, uintptr_t bounds_min, size_t bounds_size);

  // One naturally-aligned page.
  void* AllocPage(uint32_t flags);

  // Returns a block to the pool.  The caller remembers the size (the LMM
  // stores no per-allocation header — that is what keeps it usable for
  // page-granular physical memory).
  void Free(void* block, size_t size);

  // Total free bytes in regions whose flags contain all bits in `flags`.
  size_t Avail(uint32_t flags) const;

  // Free-list walk (open implementation).  Finds the first free block at or
  // above *inout_addr; returns false when none.  On success sets *inout_addr
  // to the block address and fills size/flags.
  bool FindFree(uintptr_t* inout_addr, size_t* out_size, uint32_t* out_flags) const;

  // Internal-consistency audit used by the property tests: blocks sorted,
  // non-overlapping, coalesced, within their region, sizes >= kMinSize, and
  // per-region free-byte counters exact.  Panics on violation.
  void AuditOrDie() const;

  // Call-count counters; BindTrace registers them with a trace environment
  // as lmm.alloc_calls / lmm.free_calls and wires alloc/free flight-recorder
  // events (the kernel support library does this for its LMM).
  struct Counters {
    trace::Counter alloc_calls;
    trace::Counter free_calls;
  };
  const Counters& counters() const { return counters_; }
  size_t allocs() const { return counters_.alloc_calls; }
  size_t frees() const { return counters_.free_calls; }

  void BindTrace(trace::TraceEnv* env);

  // Fault injection: when the bound environment arms "lmm.alloc", AllocGen
  // fails (returns nullptr) on fired calls, exactly as exhaustion would.
  void BindFault(fault::FaultEnv* env) { fault_ = env; }

 private:
  void AddFreeToRegion(LmmRegion* region, uintptr_t min, uintptr_t max);

  LmmRegion* regions_ = nullptr;
  Counters counters_;
  trace::CounterBlock trace_binding_;
  trace::FlightRecorder* recorder_ = nullptr;
  fault::FaultEnv* fault_ = nullptr;  // null: nothing armed
};

}  // namespace oskit

#endif  // OSKIT_SRC_LMM_LMM_H_
