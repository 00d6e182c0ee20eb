#include "src/machine/memmon.h"

#include <cstring>

#include "src/base/panic.h"

namespace oskit {

namespace {

constexpr size_t kPage = PhysMem::kPageAlign;

size_t PagesCovering(PhysAddr addr, size_t len) {
  PhysAddr first = addr / kPage;
  PhysAddr last = (addr + len - 1) / kPage;
  return static_cast<size_t>(last - first + 1);
}

}  // namespace

const char* PageProtName(PageProt prot) {
  switch (prot) {
    case PageProt::kComponentWritable:
      return "component";
    case PageProt::kKernelWritable:
      return "kernel";
    case PageProt::kMonitorPrivate:
      return "monitor";
  }
  return "?";
}

const char* MemAccessName(MemAccess access) {
  switch (access) {
    case MemAccess::kComponentStore:
      return "store";
    case MemAccess::kComponentLoad:
      return "load";
    case MemAccess::kKernelStore:
      return "kstore";
    case MemAccess::kDmaStore:
      return "dma";
  }
  return "?";
}

MemMonitor::MemMonitor(PhysMem* phys, Cpu* cpu, trace::TraceEnv* trace)
    : phys_(phys), cpu_(cpu), trace_(trace::ResolveTraceEnv(trace)) {
  pages_ = (phys_->size() + kPage - 1) / kPage;
  binding_.Bind(&trace_->registry,
                {{"mon.violation.store", &counters_.store_violations},
                 {"mon.violation.load", &counters_.load_violations},
                 {"mon.violation.dma", &counters_.dma_violations},
                 {"mon.violation.pte", &counters_.pte_violations},
                 {"mon.violation.raised", &counters_.raised},
                 {"mon.call.protect", &counters_.calls_protect},
                 {"mon.call.store", &counters_.calls_store},
                 {"mon.domain.killed", &counters_.domains_killed}});
}

MemMonitor::~MemMonitor() {
  if (phys_->monitor() == this) {
    phys_->AttachMonitor(nullptr);
  }
}

size_t MemMonitor::map_bytes_needed() const { return pages_; }

Error MemMonitor::Enable(void* storage, size_t len) {
  if (enabled_) {
    return Error::kExist;
  }
  if (storage == nullptr || len < map_bytes_needed() ||
      !phys_->Contains(storage, len)) {
    return Error::kInval;
  }
  PhysAddr map_addr = phys_->AddrOf(storage);
  if (map_addr % kPage != 0) {
    return Error::kInval;
  }
  map_ = static_cast<uint8_t*>(storage);
  // Components must be granted their pages explicitly (the secure layer's
  // SecureLmm does); everything else is kernel state.
  std::memset(map_, static_cast<int>(PageProt::kKernelWritable), pages_);
  enabled_ = true;
  // The map protects itself: the pages holding it are monitor-private, so
  // a kernel-level store cannot widen a component's view.
  in_monitor_ = true;
  SetRange(map_addr, len, PageProt::kMonitorPrivate);
  in_monitor_ = false;
  trace_->recorder.Record(trace::EventType::kMark, "mon.enable", pages_, 0);
  return Error::kOk;
}

Error MemMonitor::MonitorCall(PhysAddr addr, size_t len, PageProt prot) {
  if (!enabled_) {
    return Error::kInval;
  }
  OSKIT_ASSERT_MSG(!in_monitor_, "MonitorCall is not reentrant");
  // Page-granular and wrap-checked: addr + len overflowing must be
  // rejected, not silently wrap (the MapRange bug class).
  if (len == 0 || (addr | len) % kPage != 0 || addr >= phys_->size() ||
      len > phys_->size() - addr) {
    return Error::kInval;
  }
  ++counters_.calls_protect;
  in_monitor_ = true;
  SetRange(addr, len, prot);
  in_monitor_ = false;
  return Error::kOk;
}

Error MemMonitor::MonitorStore(PhysAddr addr, const void* src, size_t len) {
  if (len == 0) {
    return Error::kOk;
  }
  if (addr >= phys_->size() || len > phys_->size() - addr) {
    return Error::kFault;
  }
  if (enabled_) {
    ++counters_.calls_store;
  }
  in_monitor_ = true;
  std::memcpy(phys_->PtrAt(addr), src, len);
  in_monitor_ = false;
  return Error::kOk;
}

PageProt MemMonitor::ProtOf(PhysAddr addr) const {
  OSKIT_ASSERT_MSG(addr < phys_->size(), "ProtOf out of range");
  if (!enabled_) {
    return PageProt::kKernelWritable;
  }
  return static_cast<PageProt>(map_[addr / kPage]);
}

size_t MemMonitor::PageCount(PageProt prot) const {
  if (!enabled_) {
    return prot == PageProt::kKernelWritable ? pages_ : 0;
  }
  size_t n = 0;
  for (size_t i = 0; i < pages_; ++i) {
    if (map_[i] == static_cast<uint8_t>(prot)) {
      ++n;
    }
  }
  return n;
}

Error MemMonitor::CheckedCopy(uint32_t domain, PhysAddr addr, size_t len,
                              MemAccess access, const void* buf) {
  Error err = Check(domain, addr, len, access);
  if (err == Error::kOk && len != 0) {
    void* phys = phys_->PtrAt(addr);
    if (access == MemAccess::kComponentLoad) {
      std::memcpy(const_cast<void*>(buf), phys, len);
    } else {
      std::memcpy(phys, buf, len);
    }
  }
  return err;
}

Error MemMonitor::KernelStore(PhysAddr addr, const void* src, size_t len) {
  return CheckedCopy(kKernelDomain, addr, len, MemAccess::kKernelStore, src);
}

Error MemMonitor::ComponentStore(uint32_t domain, PhysAddr addr,
                                 const void* src, size_t len) {
  return CheckedCopy(domain, addr, len, MemAccess::kComponentStore, src);
}

Error MemMonitor::ComponentLoad(uint32_t domain, PhysAddr addr, void* dst,
                                size_t len) {
  return CheckedCopy(domain, addr, len, MemAccess::kComponentLoad, dst);
}

Error MemMonitor::DmaStore(PhysAddr addr, const void* src, size_t len) {
  return CheckedCopy(kKernelDomain, addr, len, MemAccess::kDmaStore, src);
}

void MemMonitor::KillDomain(uint32_t domain) {
  if (domain == kKernelDomain || domain_killed(domain)) {
    return;
  }
  killed_.push_back(domain);
  ++counters_.domains_killed;
  trace_->recorder.Record(trace::EventType::kMark, "mon.domain.kill", domain,
                          0);
  if (kill_hook_) {
    kill_hook_(domain);
  }
}

bool MemMonitor::domain_killed(uint32_t domain) const {
  for (uint32_t id : killed_) {
    if (id == domain) {
      return true;
    }
  }
  return false;
}

void MemMonitor::ForEachViolation(
    const std::function<void(const Violation&)>& fn) const {
  uint64_t have = violation_seq_ < kViolationRing ? violation_seq_
                                                  : uint64_t{kViolationRing};
  for (uint64_t i = 0; i < have; ++i) {
    fn(ring_[(violation_seq_ - have + i) % kViolationRing]);
  }
}

const MemMonitor::Violation* MemMonitor::last_violation() const {
  if (violation_seq_ == 0) {
    return nullptr;
  }
  return &ring_[(violation_seq_ - 1) % kViolationRing];
}

PageProt MemMonitor::StrictestOver(PhysAddr addr, size_t len) const {
  uint8_t strictest = 0;
  size_t first = addr / kPage;
  size_t count = PagesCovering(addr, len);
  for (size_t i = 0; i < count; ++i) {
    if (map_[first + i] > strictest) {
      strictest = map_[first + i];
    }
  }
  return static_cast<PageProt>(strictest);
}

Error MemMonitor::Check(uint32_t domain, PhysAddr addr, size_t len,
                        MemAccess access) {
  if (len == 0) {
    return Error::kOk;
  }
  // Wrap-safe bounds: `addr + len` may not be compared against size()
  // directly (the MapRange bug class).
  if (addr >= phys_->size() || len > phys_->size() - addr) {
    return Error::kFault;
  }
  if (!enabled_ || !enforcing_ || in_monitor_) {
    return Error::kOk;
  }
  PageProt prot = StrictestOver(addr, len);
  bool killed = domain != kKernelDomain && domain_killed(domain);
  bool allowed = false;
  switch (access) {
    case MemAccess::kKernelStore:
      allowed = prot != PageProt::kMonitorPrivate;
      break;
    case MemAccess::kComponentStore:
      allowed = !killed && prot == PageProt::kComponentWritable;
      break;
    case MemAccess::kComponentLoad:
      allowed = !killed && prot != PageProt::kMonitorPrivate;
      break;
    case MemAccess::kDmaStore:
      // DMA writes are component-level: a misprogrammed (or hostile)
      // device must not reach kernel state — the IOMMU view.
      allowed = prot == PageProt::kComponentWritable;
      break;
  }
  if (allowed) {
    return Error::kOk;
  }
  RaiseViolation(domain, addr, access, prot);
  return Error::kAccess;
}

void MemMonitor::RaiseViolation(uint32_t domain, PhysAddr addr,
                                MemAccess access, PageProt prot) {
  Violation& v = ring_[violation_seq_ % kViolationRing];
  v.seq = ++violation_seq_;
  v.domain = domain;
  v.addr = addr;
  v.access = access;
  v.prot = prot;

  // Classification: anything aimed at monitor-private state is a PTE/map
  // flip attempt regardless of the vehicle; the rest count by vehicle.
  const char* tag;
  if (prot == PageProt::kMonitorPrivate) {
    ++counters_.pte_violations;
    tag = "mon.violation.pte";
  } else if (access == MemAccess::kDmaStore) {
    ++counters_.dma_violations;
    tag = "mon.violation.dma";
  } else if (access == MemAccess::kComponentLoad) {
    ++counters_.load_violations;
    tag = "mon.violation.load";
  } else {
    ++counters_.store_violations;
    tag = "mon.violation.store";
  }
  ++counters_.raised;
  trace_->recorder.Record(trace::EventType::kMark, tag, addr, domain);

  // Recoverable, attributable fault: a PTE-flip attempt is a page fault on
  // a write-protected page table; the rest are protection faults.  The
  // magic-tagged error code lets the kernel's recovery handler tell these
  // from organic traps and chain the latter onward.
  uint8_t vector = prot == PageProt::kMonitorPrivate ? kTrapPageFault
                                                     : kTrapGeneralProtection;
  uint32_t error_code = kFaultMagic | ((domain & 0xffu) << 8) |
                        static_cast<uint32_t>(access);
  cpu_->RaiseTrap(vector, error_code);
}

void MemMonitor::SetRange(PhysAddr addr, size_t len, PageProt prot) {
  OSKIT_ASSERT_MSG(in_monitor_, "protection flips only inside the gate");
  size_t first = addr / kPage;
  size_t count = PagesCovering(addr, len);
  OSKIT_ASSERT_MSG(first + count <= pages_, "SetRange out of range");
  std::memset(map_ + first, static_cast<int>(prot), count);
}

// ---- PhysMem checked entry points (declared in physmem.h) ----

Error PhysMem::Store(PhysAddr addr, const void* src, size_t len) {
  if (monitor_ != nullptr) {
    return monitor_->KernelStore(addr, src, len);
  }
  if (len == 0) {
    return Error::kOk;
  }
  if (addr >= size_ || len > size_ - addr) {
    return Error::kFault;
  }
  std::memcpy(base_ + addr, src, len);
  return Error::kOk;
}

Error PhysMem::Dma(PhysAddr addr, const void* src, size_t len) {
  if (monitor_ != nullptr) {
    return monitor_->DmaStore(addr, src, len);
  }
  if (len == 0) {
    return Error::kOk;
  }
  if (addr >= size_ || len > size_ - addr) {
    return Error::kFault;
  }
  std::memcpy(base_ + addr, src, len);
  return Error::kOk;
}

}  // namespace oskit
