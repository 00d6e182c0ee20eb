#include "src/lmm/lmm.h"

#include <cstdio>

#include "src/base/panic.h"

namespace oskit {
namespace {

// Internal allocation quantum.  Every free block's address and size is a
// multiple of this, which guarantees any split leaves representable
// fragments (a fragment is always >= sizeof(FreeBlock)).  Deviation from the
// original LMM (which tolerated arbitrary granularity at the cost of leaked
// slivers): alignment-offset requests must be kQuantum-compatible, which
// every real client (page, DMA-boundary, cache-line alignment) satisfies.
constexpr uintptr_t kQuantum = sizeof(FreeBlock);
static_assert(kQuantum >= 16, "FreeBlock must provide the 16-byte quantum");

uintptr_t RoundUp(uintptr_t v) { return (v + kQuantum - 1) & ~(kQuantum - 1); }
uintptr_t RoundDown(uintptr_t v) { return v & ~(kQuantum - 1); }

uintptr_t AddrOf(const void* p) { return reinterpret_cast<uintptr_t>(p); }
FreeBlock* BlockAt(uintptr_t addr) { return reinterpret_cast<FreeBlock*>(addr); }

}  // namespace

void Lmm::BindTrace(trace::TraceEnv* env) {
  env = trace::Required(env);
  trace_binding_.Unbind();
  trace_binding_.Bind(&env->registry,
                      {{"lmm.alloc_calls", &counters_.alloc_calls},
                       {"lmm.free_calls", &counters_.free_calls}});
  recorder_ = &env->recorder;
}

void Lmm::AddRegion(LmmRegion* region, void* base, size_t size, uint32_t flags,
                    int32_t priority) {
  OSKIT_ASSERT(region != nullptr);
  OSKIT_ASSERT(size > 0);
  region->min = AddrOf(base);
  region->max = region->min + size;
  region->flags = flags;
  region->priority = priority;
  region->free_list = nullptr;
  region->free_bytes = 0;

  // No region may overlap another: the free lists would corrupt.
  for (LmmRegion* r = regions_; r != nullptr; r = r->next) {
    OSKIT_ASSERT_MSG(region->max <= r->min || region->min >= r->max,
                     "overlapping LMM regions");
  }

  // Insert in descending priority order (stable for equal priorities).
  LmmRegion** link = &regions_;
  while (*link != nullptr && (*link)->priority >= priority) {
    link = &(*link)->next;
  }
  region->next = *link;
  *link = region;
}

void Lmm::AddFree(void* base, size_t size) {
  uintptr_t lo = AddrOf(base);
  uintptr_t hi = lo + size;
  for (LmmRegion* r = regions_; r != nullptr; r = r->next) {
    uintptr_t s = lo > r->min ? lo : r->min;
    uintptr_t e = hi < r->max ? hi : r->max;
    if (s < e) {
      AddFreeToRegion(r, s, e);
    }
  }
}

void Lmm::AddFreeToRegion(LmmRegion* region, uintptr_t min, uintptr_t max) {
  min = RoundUp(min);
  max = RoundDown(max);
  if (min >= max || max - min < kQuantum) {
    return;
  }
  size_t size = max - min;

  // Find the insertion point in the address-ordered list.
  FreeBlock** link = &region->free_list;
  while (*link != nullptr && AddrOf(*link) < min) {
    FreeBlock* b = *link;
    OSKIT_ASSERT_MSG(AddrOf(b) + b->size <= min, "freeing overlapping range");
    link = &b->next;
  }
  if (*link != nullptr) {
    OSKIT_ASSERT_MSG(max <= AddrOf(*link), "freeing overlapping range");
  }

  // Merge with the following block.
  FreeBlock* next = *link;
  if (next != nullptr && AddrOf(next) == max) {
    size += next->size;
    next = next->next;
  }
  // Merge with the preceding block (link points into it if adjacent).
  if (link != &region->free_list) {
    // Recover the predecessor: link is &pred->next.
    FreeBlock* pred = reinterpret_cast<FreeBlock*>(
        reinterpret_cast<char*>(link) - offsetof(FreeBlock, next));
    if (AddrOf(pred) + pred->size == min) {
      pred->size += size;
      pred->next = next;
      region->free_bytes += max - min;
      return;
    }
  }
  FreeBlock* block = BlockAt(min);
  block->size = size;
  block->next = next;
  *link = block;
  region->free_bytes += max - min;
}

void Lmm::RemoveFree(void* base, size_t size) {
  uintptr_t lo = RoundDown(AddrOf(base));
  uintptr_t hi = RoundUp(AddrOf(base) + size);
  for (LmmRegion* r = regions_; r != nullptr; r = r->next) {
    FreeBlock** link = &r->free_list;
    while (*link != nullptr) {
      FreeBlock* b = *link;
      uintptr_t b_lo = AddrOf(b);
      uintptr_t b_hi = b_lo + b->size;
      if (b_hi <= lo || b_lo >= hi) {
        link = &b->next;
        continue;
      }
      // Overlap: remove the block, then re-add the surviving pieces.
      *link = b->next;
      r->free_bytes -= b->size;
      if (b_lo < lo) {
        AddFreeToRegion(r, b_lo, lo);
        // The left piece sits before `lo`; the link may now point at it, so
        // restart the scan for simplicity (lists are short).
        link = &r->free_list;
      }
      if (b_hi > hi) {
        AddFreeToRegion(r, hi, b_hi);
        link = &r->free_list;
      }
    }
  }
}

void* Lmm::Alloc(size_t size, uint32_t flags) {
  return AllocGen(size, flags, 0, 0, 0, 0);
}

void* Lmm::AllocAligned(size_t size, uint32_t flags, unsigned align_bits,
                        uintptr_t align_ofs) {
  return AllocGen(size, flags, align_bits, align_ofs, 0, 0);
}

void* Lmm::AllocPage(uint32_t flags) {
  return AllocGen(kLmmPageSize, flags, 12, 0, 0, 0);
}

void* Lmm::AllocGen(size_t size, uint32_t flags, unsigned align_bits,
                    uintptr_t align_ofs, uintptr_t bounds_min, size_t bounds_size) {
  OSKIT_ASSERT(size > 0);
  OSKIT_ASSERT(align_bits < sizeof(uintptr_t) * 8);
  uintptr_t mask = (uintptr_t{1} << align_bits) - 1;
  uintptr_t want = align_ofs & mask;
  OSKIT_ASSERT_MSG((want & (kQuantum - 1)) == 0,
                   "alignment offset must be a multiple of the LMM quantum");
  size = RoundUp(size);
  uintptr_t bounds_max = bounds_size == 0 ? ~uintptr_t{0} : bounds_min + bounds_size;

  if (fault::ShouldFail(fault_, "lmm.alloc")) {
    return nullptr;  // simulated exhaustion: same contract as the real miss
  }

  for (LmmRegion* r = regions_; r != nullptr; r = r->next) {
    if ((r->flags & flags) != flags) {
      continue;
    }
    if (bounds_size != 0 && (r->max <= bounds_min || r->min >= bounds_max)) {
      continue;
    }
    FreeBlock** link = &r->free_list;
    for (FreeBlock* b = *link; b != nullptr; link = &b->next, b = *link) {
      uintptr_t b_lo = AddrOf(b);
      uintptr_t b_hi = b_lo + b->size;
      uintptr_t addr = b_lo;
      if (addr < bounds_min) {
        addr = RoundUp(bounds_min);
      }
      // Advance to the alignment pattern (delta is a kQuantum multiple
      // because both `want` and `addr` are).
      addr += (want - (addr & mask)) & mask;
      if (addr + size > b_hi || addr + size > bounds_max) {
        continue;
      }
      uintptr_t lead = addr - b_lo;
      uintptr_t trail = b_hi - (addr + size);
      // Unlink the block, then return the remainders.
      *link = b->next;
      r->free_bytes -= b->size;
      if (lead > 0) {
        AddFreeToRegion(r, b_lo, addr);
      }
      if (trail > 0) {
        AddFreeToRegion(r, addr + size, b_hi);
      }
      ++counters_.alloc_calls;
      if (recorder_ != nullptr) {
        recorder_->Record(trace::EventType::kAlloc, "lmm", addr, size);
      }
      return reinterpret_cast<void*>(addr);
    }
  }
  return nullptr;
}

void Lmm::Free(void* block, size_t size) {
  OSKIT_ASSERT(block != nullptr);
  OSKIT_ASSERT(size > 0);
  uintptr_t lo = AddrOf(block);
  uintptr_t hi = lo + RoundUp(size);
  for (LmmRegion* r = regions_; r != nullptr; r = r->next) {
    if (lo >= r->min && hi <= r->max) {
      AddFreeToRegion(r, lo, hi);
      ++counters_.free_calls;
      if (recorder_ != nullptr) {
        recorder_->Record(trace::EventType::kFree, "lmm", lo, size);
      }
      return;
    }
  }
  Panic("Lmm::Free: block %p not within any region", block);
}

size_t Lmm::Avail(uint32_t flags) const {
  size_t total = 0;
  for (const LmmRegion* r = regions_; r != nullptr; r = r->next) {
    if ((r->flags & flags) == flags) {
      total += r->free_bytes;
    }
  }
  return total;
}

bool Lmm::FindFree(uintptr_t* inout_addr, size_t* out_size,
                   uint32_t* out_flags) const {
  uintptr_t floor = *inout_addr;
  const FreeBlock* best = nullptr;
  uint32_t best_flags = 0;
  for (const LmmRegion* r = regions_; r != nullptr; r = r->next) {
    for (const FreeBlock* b = r->free_list; b != nullptr; b = b->next) {
      if (AddrOf(b) + b->size <= floor) {
        continue;
      }
      if (best == nullptr || AddrOf(b) < AddrOf(best)) {
        best = b;
        best_flags = r->flags;
      }
      break;  // list is address-ordered; later blocks in this region are worse
    }
  }
  if (best == nullptr) {
    return false;
  }
  *inout_addr = AddrOf(best);
  *out_size = best->size;
  *out_flags = best_flags;
  return true;
}

void Lmm::AuditOrDie() const {
  for (const LmmRegion* r = regions_; r != nullptr; r = r->next) {
    size_t total = 0;
    uintptr_t last_end = 0;
    bool first = true;
    for (const FreeBlock* b = r->free_list; b != nullptr; b = b->next) {
      uintptr_t lo = AddrOf(b);
      OSKIT_ASSERT_MSG((lo & (kQuantum - 1)) == 0, "misaligned free block");
      OSKIT_ASSERT_MSG(b->size >= kQuantum && (b->size & (kQuantum - 1)) == 0,
                       "bad free block size");
      OSKIT_ASSERT_MSG(lo >= r->min && lo + b->size <= r->max,
                       "free block outside region");
      if (!first) {
        OSKIT_ASSERT_MSG(lo > last_end, "free list unsorted or uncoalesced");
      }
      first = false;
      last_end = lo + b->size;
      total += b->size;
    }
    OSKIT_ASSERT_MSG(total == r->free_bytes, "free byte counter drift");
  }
}

}  // namespace oskit
