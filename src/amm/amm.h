// Address Map Manager (paper §3.3).
//
// Where the LMM hands out real memory, the AMM manages *address spaces that
// need not map to memory at all*: process address spaces, paging partitions,
// free-block maps, IPC namespaces.  It maintains a totally-ordered set of
// non-overlapping entries covering [lo, hi), each tagged with a client
// flag word; adjacent entries with equal flags are joined automatically and
// entries split as needed by partial-range operations.

#ifndef OSKIT_SRC_AMM_AMM_H_
#define OSKIT_SRC_AMM_AMM_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/base/error.h"
#include "src/fault/fault.h"

namespace oskit {

class Amm {
 public:
  // Conventional flag values; clients may use any uint32_t vocabulary.
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kAllocated = 1;
  static constexpr uint32_t kReserved = 2;

  // Creates a map covering [lo, hi), initially all `initial_flags`.
  // `free_flags` is the value Allocate() hunts for.
  Amm(uint64_t lo, uint64_t hi, uint32_t initial_flags = kFree,
      uint32_t free_flags = kFree);

  uint64_t lo() const { return lo_; }
  uint64_t hi() const { return hi_; }

  // Sets the flags of [addr, addr+size) to `flags`, splitting and joining
  // entries as required.  kInval if the range leaves [lo, hi).
  Error Modify(uint64_t addr, uint64_t size, uint32_t flags);

  // Finds a free range of `size` (optionally aligned to 1<<align_bits and
  // within [*inout_addr, upper_bound)), marks it `flags`, and returns its
  // start in *inout_addr.  kNoSpace when no hole fits.
  Error Allocate(uint64_t* inout_addr, uint64_t size, uint32_t flags,
                 unsigned align_bits = 0, uint64_t upper_bound = ~uint64_t{0});

  // Marks [addr, addr+size) free again.
  Error Deallocate(uint64_t addr, uint64_t size) {
    return Modify(addr, size, free_flags_);
  }

  // Reserves a specific range regardless of its current state.
  Error Reserve(uint64_t addr, uint64_t size, uint32_t flags) {
    return Modify(addr, size, flags);
  }

  // Looks up the entry containing `addr`; returns its flags and extent.
  Error Lookup(uint64_t addr, uint64_t* out_start, uint64_t* out_size,
               uint32_t* out_flags) const;

  // Finds the first range at or after *inout_addr whose flags satisfy
  // (flags & match_mask) == match_value and whose size is >= size.
  Error FindGen(uint64_t* inout_addr, uint64_t size, uint32_t match_value,
                uint32_t match_mask, unsigned align_bits = 0) const;

  // Walks every entry in address order.  Return false from the visitor to
  // stop early.
  void Iterate(const std::function<bool(uint64_t start, uint64_t size,
                                        uint32_t flags)>& visit) const;

  // Number of distinct entries (tests use this to verify join behaviour).
  size_t entry_count() const { return entries_.size(); }

  // Total bytes carrying exactly `flags`.
  uint64_t BytesWith(uint32_t flags) const;

  // Invariant audit: full coverage of [lo, hi), no overlap, no adjacent
  // entries with equal flags.  Panics on violation.
  void AuditOrDie() const;

  // Fault injection: with "amm.alloc" armed, Allocate() fails with
  // kNoSpace on fired calls — the same error a genuinely full map returns.
  void SetFaultEnv(fault::FaultEnv* env) { fault_ = env; }

 private:
  struct Entry {
    uint64_t end;    // exclusive
    uint32_t flags;
  };

  // Splits the entry containing `addr` so that an entry boundary falls
  // exactly at `addr` (no-op if one already does or addr is lo_/hi_).
  void SplitAt(uint64_t addr);
  void JoinAround(uint64_t lo, uint64_t hi);

  uint64_t lo_;
  uint64_t hi_;
  uint32_t free_flags_;
  std::map<uint64_t, Entry> entries_;  // keyed by start address
  fault::FaultEnv* fault_ = nullptr;  // null: nothing armed
};

}  // namespace oskit

#endif  // OSKIT_SRC_AMM_AMM_H_
