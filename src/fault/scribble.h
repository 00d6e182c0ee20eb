// Scribble injection: the hostile-component workload for the memory
// monitor (src/machine/memmon.h).
//
// A ScribbleInjector plays a buggy or hostile wrapped component that has
// decided to write where it should not.  It is driven by the same seeded
// FaultEnv machinery as every other campaign (arm the sites, replay the
// schedule from the seed) and aims every store at protected state through
// the CHECKED entry points — the simulation's stand-in for the store
// instructions a real nested kernel deprivileges:
//
//   mon.scribble.random    a store at a uniformly random offset inside the
//                          registered kernel-state targets
//   mon.scribble.targeted  a store at the start of a specific kernel
//                          structure (the "I know where the PCB table
//                          lives" attack)
//   mon.scribble.pte       a store into a page-directory/page-table page —
//                          the PTE-flip privilege escalation
//   mon.scribble.dma       a misprogrammed DMA landing in kernel state,
//                          via PhysMem::Dma
//
// With the monitor enforcing, every attempt is a counted, recoverable
// violation (stats().denied); with the ablation every attempt lands
// (stats().landed) and the first symptom is silent corruption — exactly
// the contrast bench/monitor_campaign measures.
//
// This lives in src/fault (it is an injector, not a device) but needs the
// machine layer's types, so it builds as its own library: oskit_scribble.

#ifndef OSKIT_SRC_FAULT_SCRIBBLE_H_
#define OSKIT_SRC_FAULT_SCRIBBLE_H_

#include <cstdint>
#include <vector>

#include "src/fault/fault.h"
#include "src/machine/memmon.h"
#include "src/machine/physmem.h"

namespace oskit::fault {

inline constexpr const char* kScribbleRandomSite = "mon.scribble.random";
inline constexpr const char* kScribbleTargetedSite = "mon.scribble.targeted";
inline constexpr const char* kScribblePteSite = "mon.scribble.pte";
inline constexpr const char* kScribbleDmaSite = "mon.scribble.dma";

class ScribbleInjector {
 public:
  struct Stats {
    uint64_t attempted = 0;  // stores presented to the memory system
    uint64_t denied = 0;     // refused by the monitor (counted violations)
    uint64_t landed = 0;     // mutated memory (the ablation's count)
    uint64_t random = 0;     // per-site attempt breakdown
    uint64_t targeted = 0;
    uint64_t pte = 0;
    uint64_t dma = 0;
  };

  // `domain` is the hostile component's deprivileged view; `phys` is the
  // DMA path.  The env's rng drives offset and payload choices so a seed
  // replays the exact scribble schedule.
  ScribbleInjector(FaultEnv* env, PhysMem* phys, MemDomain* domain)
      : env_(env), phys_(phys), domain_(domain) {}

  // Kernel-state ranges the random/targeted/dma sites aim at.
  void AddKernelTarget(PhysAddr addr, size_t len) {
    kernel_targets_.push_back({addr, len});
  }
  // Page-directory/page-table pages the pte site aims at.
  void AddPteTarget(PhysAddr addr, size_t len) {
    pte_targets_.push_back({addr, len});
  }

  // Probes all four sites once, firing whichever the armed schedule says
  // fire this round.
  void Tick();

  const Stats& stats() const { return stats_; }

 private:
  struct Target {
    PhysAddr addr;
    size_t len;
  };

  const Target* PickTarget(const std::vector<Target>& targets);
  void Attempt(PhysAddr addr, size_t max_len, uint64_t* site_count, bool dma);

  FaultEnv* env_;
  PhysMem* phys_;
  MemDomain* domain_;
  std::vector<Target> kernel_targets_;
  std::vector<Target> pte_targets_;
  Stats stats_;
};

}  // namespace oskit::fault

#endif  // OSKIT_SRC_FAULT_SCRIBBLE_H_
