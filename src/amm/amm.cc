#include "src/amm/amm.h"

#include "src/base/panic.h"

namespace oskit {

Amm::Amm(uint64_t lo, uint64_t hi, uint32_t initial_flags, uint32_t free_flags)
    : lo_(lo), hi_(hi), free_flags_(free_flags) {
  OSKIT_ASSERT(lo < hi);
  entries_.emplace(lo, Entry{hi, initial_flags});
}

void Amm::SplitAt(uint64_t addr) {
  if (addr <= lo_ || addr >= hi_) {
    return;
  }
  auto it = entries_.upper_bound(addr);
  OSKIT_ASSERT(it != entries_.begin());
  --it;
  if (it->first == addr) {
    return;  // boundary already exists
  }
  Entry& entry = it->second;
  OSKIT_ASSERT(addr < entry.end);
  uint64_t old_end = entry.end;
  uint32_t flags = entry.flags;
  entry.end = addr;
  entries_.emplace(addr, Entry{old_end, flags});
}

void Amm::JoinAround(uint64_t lo, uint64_t hi) {
  // Merge runs of equal-flag entries in a window slightly wider than
  // [lo, hi) so boundary joins happen too.
  auto it = entries_.upper_bound(lo);
  if (it != entries_.begin()) {
    --it;
    if (it != entries_.begin()) {
      --it;
    }
  }
  while (it != entries_.end() && it->first < hi) {
    auto next = std::next(it);
    if (next == entries_.end()) {
      break;
    }
    if (it->second.end == next->first && it->second.flags == next->second.flags) {
      it->second.end = next->second.end;
      entries_.erase(next);
      continue;  // try to absorb the following entry as well
    }
    it = next;
  }
}

Error Amm::Modify(uint64_t addr, uint64_t size, uint32_t flags) {
  if (size == 0 || addr < lo_ || addr + size > hi_ || addr + size < addr) {
    return Error::kInval;
  }
  SplitAt(addr);
  SplitAt(addr + size);
  auto it = entries_.find(addr);
  OSKIT_ASSERT(it != entries_.end());
  while (it != entries_.end() && it->first < addr + size) {
    it->second.flags = flags;
    ++it;
  }
  JoinAround(addr, addr + size);
  return Error::kOk;
}

Error Amm::Allocate(uint64_t* inout_addr, uint64_t size, uint32_t flags,
                    unsigned align_bits, uint64_t upper_bound) {
  if (fault::ShouldFail(fault_, "amm.alloc")) {
    return Error::kNoSpace;
  }
  uint64_t addr = *inout_addr;
  Error err = FindGen(&addr, size, free_flags_, ~uint32_t{0}, align_bits);
  if (!Ok(err)) {
    return Error::kNoSpace;
  }
  if (addr + size > upper_bound) {
    return Error::kNoSpace;
  }
  err = Modify(addr, size, flags);
  if (!Ok(err)) {
    return err;
  }
  *inout_addr = addr;
  return Error::kOk;
}

Error Amm::Lookup(uint64_t addr, uint64_t* out_start, uint64_t* out_size,
                  uint32_t* out_flags) const {
  if (addr < lo_ || addr >= hi_) {
    return Error::kInval;
  }
  auto it = entries_.upper_bound(addr);
  OSKIT_ASSERT(it != entries_.begin());
  --it;
  *out_start = it->first;
  *out_size = it->second.end - it->first;
  *out_flags = it->second.flags;
  return Error::kOk;
}

Error Amm::FindGen(uint64_t* inout_addr, uint64_t size, uint32_t match_value,
                   uint32_t match_mask, unsigned align_bits) const {
  if (size == 0) {
    return Error::kInval;
  }
  uint64_t mask = (uint64_t{1} << align_bits) - 1;
  uint64_t floor = *inout_addr < lo_ ? lo_ : *inout_addr;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    uint64_t start = it->first;
    uint64_t end = it->second.end;
    if ((it->second.flags & match_mask) != match_value) {
      continue;
    }
    uint64_t addr = start > floor ? start : floor;
    addr = (addr + mask) & ~mask;
    if (addr + size <= end && addr + size > addr) {
      *inout_addr = addr;
      return Error::kOk;
    }
  }
  return Error::kNoSpace;
}

void Amm::Iterate(const std::function<bool(uint64_t, uint64_t, uint32_t)>& visit) const {
  for (const auto& [start, entry] : entries_) {
    if (!visit(start, entry.end - start, entry.flags)) {
      return;
    }
  }
}

uint64_t Amm::BytesWith(uint32_t flags) const {
  uint64_t total = 0;
  for (const auto& [start, entry] : entries_) {
    if (entry.flags == flags) {
      total += entry.end - start;
    }
  }
  return total;
}

void Amm::AuditOrDie() const {
  OSKIT_ASSERT(!entries_.empty());
  uint64_t cursor = lo_;
  uint32_t prev_flags = 0;
  bool first = true;
  for (const auto& [start, entry] : entries_) {
    OSKIT_ASSERT_MSG(start == cursor, "coverage gap or overlap");
    OSKIT_ASSERT_MSG(entry.end > start, "empty entry");
    if (!first) {
      OSKIT_ASSERT_MSG(entry.flags != prev_flags, "unjoined adjacent entries");
    }
    first = false;
    prev_flags = entry.flags;
    cursor = entry.end;
  }
  OSKIT_ASSERT_MSG(cursor == hi_, "map does not reach hi");
}

}  // namespace oskit
