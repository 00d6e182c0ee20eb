// Nested-kernel-style memory monitor: MMU-enforced kernel-state integrity.
//
// The §3.8 security wrappers are a convention — a buggy or hostile wrapped
// component can still scribble directly on kernel state and the first
// symptom is silent corruption discovered much later.  This component moves
// the boundary below the components, into the memory system, the way a
// nested kernel write-protects the page tables out from under the outer
// kernel: PhysMem grows a per-page protection map with a three-level
// lattice,
//
//   component-writable < kernel-writable < monitor-private
//
// and checked Store/DMA entry points.  Deprivileged components store
// through a MemDomain view (component level); the kernel stores through
// PhysMem::Store (kernel level); devices DMA through PhysMem::Dma (treated
// as component level — an IOMMU would); and the monitor itself is the only
// thing that may touch monitor-private pages.  The protection map and the
// page-directory/page-table pages live in monitor-private pages, so even a
// kernel-level store cannot flip a PTE or rewrite the map: those go through
// the MonitorCall/MonitorStore privileged-transition gate, which is the
// single entry point that raises privilege.
//
// A refused access is a *counted, recoverable* fault, never a panic: the
// monitor records the violation (last-N ring for kmon `mon`), bumps
// mon.violation.{store,load,dma,pte}, and raises kTrapGeneralProtection
// (kTrapPageFault when the target is monitor-private — a PTE-flip attempt)
// with a magic-tagged error code.  The kernel support library installs a
// recovery handler that counts mon.violation.caught and kills the offending
// domain — the store never lands, the victims never notice.
//
// Honesty note (same spirit as the simulated MMU): host code that holds a
// raw pointer into the arena can still write through it — the checked entry
// points stand in for the store instructions a real nested kernel would
// deprivilege with CR0.WP + PTE bits.  Enforcement therefore covers exactly
// the surfaces routed through them: MemDomain views, PhysMem::Store/Dma,
// the PageDirectory mutators, and the fault-injection scribble sites.
// SetEnforcement(false) is the campaign's ablation: the map is maintained
// but every store lands silently — the world PR 9's bench must prove
// corrupts.

#ifndef OSKIT_SRC_MACHINE_MEMMON_H_
#define OSKIT_SRC_MACHINE_MEMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/error.h"
#include "src/machine/cpu.h"
#include "src/machine/physmem.h"
#include "src/trace/trace.h"

namespace oskit {

// The protection lattice, least to most privileged.
enum class PageProt : uint8_t {
  kComponentWritable = 0,  // any live domain may store/load
  kKernelWritable = 1,     // kernel-level stores only
  kMonitorPrivate = 2,     // monitor gate only (page tables, the map itself)
};

const char* PageProtName(PageProt prot);

// Who is attempting the access, for classification and the violation ring.
enum class MemAccess : uint8_t {
  kComponentStore = 0,
  kComponentLoad = 1,
  kKernelStore = 2,
  kDmaStore = 3,
};

const char* MemAccessName(MemAccess access);

class MemMonitor {
 public:
  // Domain id the kernel's own stores carry; never killable.
  static constexpr uint32_t kKernelDomain = 0;

  // Monitor faults tag the trap error code with this magic in the upper
  // half so the recovery handler can tell them from organic GP faults; the
  // low byte carries the MemAccess.
  static constexpr uint32_t kFaultMagic = 0x4d4f0000;  // "MO"

  static constexpr size_t kViolationRing = 32;

  struct Violation {
    uint64_t seq = 0;      // 1-based, total order
    uint32_t domain = 0;   // offending domain (principal id; 0 = kernel)
    PhysAddr addr = 0;     // first offending byte
    MemAccess access = MemAccess::kComponentStore;
    PageProt prot = PageProt::kComponentWritable;  // the page that refused
  };

  // Counters register as mon.* in `trace`'s registry.
  MemMonitor(PhysMem* phys, Cpu* cpu, trace::TraceEnv* trace);
  ~MemMonitor();
  MemMonitor(const MemMonitor&) = delete;
  MemMonitor& operator=(const MemMonitor&) = delete;

  // One protection byte per physical page.
  size_t map_bytes_needed() const;

  // Installs the protection map into `storage` — page-aligned, inside the
  // arena, at least map_bytes_needed() long — and arms enforcement.  Every
  // page starts kernel-writable (components must be granted their pages
  // explicitly); the pages holding the map itself become monitor-private,
  // so the map is protected by the mechanism it implements.  kInval on a
  // misaligned/short/foreign buffer, kExist when already enabled.
  Error Enable(void* storage, size_t len);
  bool enabled() const { return enabled_; }

  // The scribble-campaign ablation: keep all bookkeeping but let every
  // store land.  Violations are neither counted nor raised — silent
  // corruption, the failure mode the monitor exists to kill.
  void SetEnforcement(bool on) { enforcing_ = on; }
  bool enforcing() const { return enforcing_; }

  // ---- The privileged-transition gate ----
  // The ONLY way to change protections.  [addr, addr+len) must be
  // page-aligned, non-empty, in range (no unsigned wrap — kInval, the
  // MapRange bug class).  Counted as mon.call.protect.
  Error MonitorCall(PhysAddr addr, size_t len, PageProt prot);

  // Privileged store: how the kernel's paging code writes PTEs into
  // monitor-private page-table pages.  Counted as mon.call.store.
  Error MonitorStore(PhysAddr addr, const void* src, size_t len);

  PageProt ProtOf(PhysAddr addr) const;
  // Pages currently at `prot` (kmon `mon` summary).
  size_t PageCount(PageProt prot) const;

  // ---- Checked entry points ----
  // kFault on out-of-range/wrapping spans (nothing written, not a
  // violation); kAccess on a protection violation (nothing written, the
  // violation is recorded, counted, and raised through the trap vectors).
  Error KernelStore(PhysAddr addr, const void* src, size_t len);
  Error ComponentStore(uint32_t domain, PhysAddr addr, const void* src,
                       size_t len);
  Error ComponentLoad(uint32_t domain, PhysAddr addr, void* dst, size_t len);
  Error DmaStore(PhysAddr addr, const void* src, size_t len);

  // ---- Domain containment ----
  // A killed domain loses the memory system entirely: every further access
  // through its view is a counted violation.  Killing the kernel domain is
  // ignored; killing twice is idempotent.  The hook (installed by the
  // secure layer) marks the matching Principal so the COM wrapper surface
  // denies too.
  void KillDomain(uint32_t domain);
  bool domain_killed(uint32_t domain) const;
  using KillHook = std::function<void(uint32_t domain)>;
  void SetKillHook(KillHook hook) { kill_hook_ = std::move(hook); }

  // ---- Introspection (kmon `mon`, the campaign) ----
  // Last kViolationRing violations, oldest first.
  void ForEachViolation(const std::function<void(const Violation&)>& fn) const;
  // The most recent violation (what the trap handler attributes), or null.
  const Violation* last_violation() const;

  struct Counters {
    trace::Counter store_violations;  // mon.violation.store
    trace::Counter load_violations;   // mon.violation.load
    trace::Counter dma_violations;    // mon.violation.dma
    trace::Counter pte_violations;    // mon.violation.pte (target was
                                      // monitor-private: PTE/map flips)
    trace::Counter raised;            // mon.violation.raised (sum, traps)
    trace::Counter calls_protect;     // mon.call.protect
    trace::Counter calls_store;       // mon.call.store
    trace::Counter domains_killed;    // mon.domain.killed
  };
  const Counters& counters() const { return counters_; }

 private:
  // Strictest protection over the span; assumes the range was validated.
  PageProt StrictestOver(PhysAddr addr, size_t len) const;
  // kFault for bad spans; kOk when the access may proceed; kAccess after
  // recording + raising a violation.
  Error Check(uint32_t domain, PhysAddr addr, size_t len, MemAccess access);
  // Check, then copy `len` bytes between physical memory at `addr` and
  // `buf`: into `buf` for a load (which passes a writable buffer), out of
  // it for every store.
  Error CheckedCopy(uint32_t domain, PhysAddr addr, size_t len, MemAccess access,
                    const void* buf);
  void RaiseViolation(uint32_t domain, PhysAddr addr, MemAccess access,
                      PageProt prot);
  void SetRange(PhysAddr addr, size_t len, PageProt prot);

  PhysMem* phys_;
  Cpu* cpu_;
  trace::TraceEnv* trace_;
  uint8_t* map_ = nullptr;  // one PageProt byte per page, inside the arena
  size_t pages_ = 0;
  bool enabled_ = false;
  bool enforcing_ = true;
  bool in_monitor_ = false;  // inside the gate (SetRange asserts this)
  std::vector<uint32_t> killed_;  // small, sorted-insertion not needed
  KillHook kill_hook_;
  Violation ring_[kViolationRing];
  uint64_t violation_seq_ = 0;
  Counters counters_;
  trace::CounterBlock binding_;
};

// A component's deprivileged view of physical memory: every access goes
// through the monitor at component level, attributed to `domain` (the
// owning principal's id).  Without an enabled monitor the view is the open
// 1997 world — stores land directly (this is what the ablation measures).
class MemDomain {
 public:
  MemDomain(MemMonitor* mon, uint32_t domain) : mon_(mon), domain_(domain) {}

  Error Store(PhysAddr addr, const void* src, size_t len) {
    return mon_->ComponentStore(domain_, addr, src, len);
  }
  Error Load(PhysAddr addr, void* dst, size_t len) {
    return mon_->ComponentLoad(domain_, addr, dst, len);
  }

  uint32_t id() const { return domain_; }
  bool killed() const { return mon_->domain_killed(domain_); }
  MemMonitor* monitor() const { return mon_; }

 private:
  MemMonitor* mon_;
  uint32_t domain_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_MEMMON_H_
