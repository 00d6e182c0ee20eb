// Monitor campaign: seeded scribble injection vs the nested-kernel memory
// monitor (src/machine/memmon.h), end to end.
//
// One world per (seed, mode): a kernel with the memory monitor enabled,
// three well-behaved tenants and one hostile component, all interleaved as
// fibers on the simulation:
//
//   * kernel state — four pages of "PCB tables" the kernel updates every
//     round through PhysMem::Store, mirrored in a host-side shadow; plus a
//     live PageDirectory whose translations victims depend on.
//   * victims — each owns monitor-granted pages (SecureLmm demotes them to
//     component-writable) and does a write/read-back pattern per round
//     through its MemDomain view; victim 0 also runs a create/write/unlink
//     leg on a journaled FFS volume (the tenant-invariant carry-over).
//   * hostile — a ScribbleInjector driven by the seeded FaultEnv, aiming
//     random/targeted stores, PTE flips, and misprogrammed DMA at the
//     kernel pages and the page-directory/page-table pages.
//
// Two runs per seed:
//
//   guarded   every injected scribble must be a counted, recoverable
//             violation: denied == injected, mon.violation.raised ==
//             injected, mon.violation.caught == injected (the trap-handler
//             accounting), ZERO kernel-shadow mismatches, translations
//             intact, victims unharmed (all ops succeed, none killed), the
//             hostile principal killed, fsck consistent, quota gauges
//             drained.  The run completing is the no-panic proof.
//   ablation  SetEnforcement(false): the same schedule LANDS silently
//             (landed == injected, raised == 0) and kernel state MUST
//             corrupt on at least one seed overall — the monitor is what
//             stood between a buggy component and silent corruption.
//
// Emits BENCH_monitor.json for bench/check_regression.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/com/memblkio.h"
#include "src/fault/scribble.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/kern/paging.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using fault::FaultSpec;
using fault::ScribbleInjector;
using secure::Budget;
using secure::Principal;
using secure::PrincipalRegistry;
using secure::Resource;
using secure::SecureLmm;

namespace {

constexpr int kVictims = 3;
constexpr size_t kKernelPages = 4;   // the shadowed "PCB table" pages
constexpr size_t kVictimPages = 2;   // per-victim granted pages
constexpr uint32_t kMapBase = 0x00400000;  // VA range the victims rely on

struct Options {
  int seeds = 5;
  uint64_t seed_base = 1;
  int rounds = 40;
  const char* json_path = nullptr;
};

struct RunResult {
  uint64_t injected = 0;        // scribbles presented to the memory system
  uint64_t denied = 0;          // refused by the monitor
  uint64_t landed = 0;          // mutated memory (ablation)
  uint64_t raised = 0;          // mon.violation.raised
  uint64_t caught = 0;          // mon.violation.caught (trap recovery)
  uint64_t pte_violations = 0;
  uint64_t dma_violations = 0;
  uint64_t kernel_mismatches = 0;  // shadow vs arena after the run
  uint64_t translate_broken = 0;   // victim VAs that no longer translate
  int victim_ops = 0;
  int victim_failures = 0;
  int fs_ops = 0;
  int fs_failures = 0;
  bool hostile_killed = false;
  bool victim_killed = false;
  bool fsck_consistent = false;
  uint64_t quota_leaked = 0;
  bool completed = false;
};

void RunCampaign(bool enforce, uint64_t seed, const Options& opt,
                 RunResult* out) {
  trace::TraceEnv trace;
  fault::FaultEnv fenv(seed);
  Simulation sim;
  Machine machine(&sim, Machine::Config{});
  KernelEnv kernel(&machine, MultiBootInfo{}, KernelEnv::SleepMode::kFiber,
                   &trace);
  PhysMem& phys = machine.phys();

  if (kernel.EnableMemoryMonitor() != Error::kOk) {
    std::fprintf(stderr, "EnableMemoryMonitor failed\n");
    std::abort();
  }
  MemMonitor* mon = kernel.memmon();
  mon->SetEnforcement(enforce);

  PrincipalRegistry principals(&trace);
  secure::AttachMonitor(&principals, mon);

  // ---- kernel state: shadowed pages the scribbler aims at ----
  void* kstate = kernel.MemAllocAligned(kKernelPages * kPageSize, 0, 12);
  if (kstate == nullptr) {
    std::abort();
  }
  PhysAddr kaddr = phys.AddrOf(kstate);
  std::vector<uint8_t> shadow(kKernelPages * kPageSize);
  for (size_t i = 0; i < shadow.size(); ++i) {
    shadow[i] = static_cast<uint8_t>((seed + i) * 2654435761u >> 24);
  }
  if (phys.Store(kaddr, shadow.data(), shadow.size()) != Error::kOk) {
    std::abort();
  }

  // ---- a live page directory (created under the monitor: its pages are
  // monitor-private) whose translations the victims depend on ----
  PageDirectory pd(&kernel);
  if (pd.MapRange(kMapBase, 0x00100000, 16 * kPageSize, kPteWritable) !=
      Error::kOk) {
    std::abort();
  }
  // The PTE targets: the directory page and the page-table page behind it.
  uint32_t pde = pd.raw_dir()[kMapBase >> 22];
  PhysAddr table_addr = pde & 0xfffff000u;
  std::vector<uint8_t> pt_shadow(2 * kPageSize);
  std::memcpy(pt_shadow.data(), phys.PtrAt(pd.dir_phys()), kPageSize);
  std::memcpy(pt_shadow.data() + kPageSize, phys.PtrAt(table_addr), kPageSize);

  // ---- tenants ----
  Principal* victims[kVictims];
  std::unique_ptr<SecureLmm> victim_lmm[kVictims];
  void* victim_mem[kVictims];
  for (int v = 0; v < kVictims; ++v) {
    victims[v] = principals.Create(
        "victim" + std::to_string(v),
        Budget{}.Set(Resource::kMemBytes, 64 * kPageSize));
    victim_lmm[v] = std::make_unique<SecureLmm>(&kernel.lmm(), victims[v],
                                                mon, &phys);
    victim_mem[v] =
        victim_lmm[v]->AllocAligned(kVictimPages * kPageSize, 0, 12, 0);
    if (victim_mem[v] == nullptr) {
      std::abort();
    }
  }
  Principal* hostile = principals.Create("hostile");
  MemDomain hostile_view = secure::DomainView(mon, hostile);

  // ---- the journaled FFS volume (victim 0's leg) ----
  ComPtr<MemBlkIo> disk = MemBlkIo::Create(1024 * 1024, 512);
  if (!Ok(fs::Mkfs(disk.get()))) {
    std::abort();
  }
  ComPtr<FileSystem> raw_fs;
  if (!Ok(fs::Offs::Mount(disk.get(), {.trace = &trace}, raw_fs.Receive()))) {
    std::abort();
  }
  secure::InstallJournalAdmission(static_cast<fs::Offs*>(raw_fs.get()),
                                  &principals);
  ComPtr<FileSystem> victim_fs =
      secure::MakeSecureFs(raw_fs, victims[0], &principals);

  // ---- the hostile component's scribble schedule ----
  fenv.Arm(fault::kScribbleRandomSite, FaultSpec{.probability_percent = 60});
  fenv.Arm(fault::kScribbleTargetedSite, FaultSpec{.probability_percent = 35});
  fenv.Arm(fault::kScribblePteSite, FaultSpec{.probability_percent = 30});
  fenv.Arm(fault::kScribbleDmaSite, FaultSpec{.probability_percent = 25});
  ScribbleInjector injector(&fenv, &phys, &hostile_view);
  injector.AddKernelTarget(kaddr, kKernelPages * kPageSize);
  injector.AddPteTarget(pd.dir_phys(), kPageSize);
  injector.AddPteTarget(table_addr, kPageSize);

  int victims_done = 0;
  bool hostile_done = false;

  // ---- victim fibers: write/read-back on granted pages, FS leg on 0 ----
  for (int v = 0; v < kVictims; ++v) {
    sim.Spawn("victim", [&, v] {
      MemDomain view = secure::DomainView(mon, victims[v]);
      PhysAddr base = phys.AddrOf(victim_mem[v]);
      ComPtr<Dir> root;
      if (v == 0 && !Ok(victim_fs->GetRoot(root.Receive()))) {
        std::abort();
      }
      for (int r = 0; r < opt.rounds; ++r) {
        uint8_t pattern[64];
        std::memset(pattern, 'A' + v + (r & 7), sizeof(pattern));
        PhysAddr at = base + (static_cast<PhysAddr>(r) * 64) %
                                 (kVictimPages * kPageSize - 64);
        uint8_t back[64] = {};
        bool ok = view.Store(at, pattern, sizeof(pattern)) == Error::kOk &&
                  view.Load(at, back, sizeof(back)) == Error::kOk &&
                  std::memcmp(pattern, back, sizeof(back)) == 0;
        ++out->victim_ops;
        if (!ok) {
          ++out->victim_failures;
        }
        if (v == 0) {
          std::string name = "f" + std::to_string(r);
          ComPtr<File> f;
          char blk[512];
          std::memset(blk, 'd', sizeof(blk));
          size_t n = 0;
          bool fs_ok = Ok(root->Create(name.c_str(), 0644, f.Receive())) &&
                       Ok(f->Write(blk, 0, sizeof(blk), &n)) &&
                       n == sizeof(blk);
          f.Reset();
          if (fs_ok) {
            fs_ok = Ok(root->Unlink(name.c_str()));
          }
          ++out->fs_ops;
          if (!fs_ok) {
            ++out->fs_failures;
          }
        }
        sim.SleepFor(kNsPerMs);
      }
      root.Reset();
      ++victims_done;
    });
  }

  // ---- hostile fiber: the scribble schedule, interleaved with victims ----
  sim.Spawn("hostile", [&] {
    for (int r = 0; r < opt.rounds; ++r) {
      injector.Tick();
      // The kernel also does its own (legitimate) state update each round:
      // bump a per-round counter word in page 0 and mirror it in the
      // shadow — in the guarded run both stay in lockstep no matter what
      // the injector does.
      uint32_t word = static_cast<uint32_t>(r + 1);
      std::memcpy(shadow.data() + 16, &word, sizeof(word));
      if (phys.Store(kaddr + 16, &word, sizeof(word)) != Error::kOk) {
        std::abort();  // the kernel's own store must always be allowed
      }
      sim.SleepFor(kNsPerMs);
    }
    hostile_done = true;
  });

  sim.Spawn("coordinator", [&] {
    sim.WaitUntil([&] { return victims_done >= kVictims && hostile_done; });
  });

  if (sim.Run() != Simulation::RunResult::kAllDone) {
    std::fprintf(stderr, "simulation wedged\n");
    std::abort();
  }
  out->completed = true;

  // ---- measure ----
  const ScribbleInjector::Stats& st = injector.stats();
  out->injected = st.attempted;
  out->denied = st.denied;
  out->landed = st.landed;
  out->raised = mon->counters().raised.value();
  out->caught = trace.registry.Value("mon.violation.caught");
  out->pte_violations = mon->counters().pte_violations.value();
  out->dma_violations = mon->counters().dma_violations.value();
  out->hostile_killed = hostile->killed();
  for (int v = 0; v < kVictims; ++v) {
    out->victim_killed = out->victim_killed || victims[v]->killed();
  }

  // Kernel-state checksum: shadow vs arena, byte for byte.
  const uint8_t* actual = static_cast<const uint8_t*>(phys.PtrAt(kaddr));
  for (size_t i = 0; i < shadow.size(); ++i) {
    if (actual[i] != shadow[i]) {
      ++out->kernel_mismatches;
    }
  }
  // Paging-state checksum: the victims' translations and the raw pages.
  for (uint32_t p = 0; p < 16; ++p) {
    uint32_t pa = 0;
    uint32_t flags = 0;
    if (pd.Translate(kMapBase + p * kPageSize, &pa, &flags) != Error::kOk ||
        pa != 0x00100000 + p * kPageSize) {
      ++out->translate_broken;
    }
  }
  out->kernel_mismatches += static_cast<uint64_t>(
      std::memcmp(pt_shadow.data(), phys.PtrAt(pd.dir_phys()), kPageSize) != 0);
  out->kernel_mismatches += static_cast<uint64_t>(
      std::memcmp(pt_shadow.data() + kPageSize, phys.PtrAt(table_addr),
                  kPageSize) != 0);

  // ---- teardown ----
  // In the ablation, landed PTE scribbles leave wild pointers in the
  // directory; repair it from the shadow (through the host-pointer honesty
  // hatch — enforcement is off) so ~PageDirectory can walk it safely.
  if (!enforce) {
    std::memcpy(phys.PtrAt(pd.dir_phys()), pt_shadow.data(), kPageSize);
    std::memcpy(phys.PtrAt(table_addr), pt_shadow.data() + kPageSize,
                kPageSize);
  }
  for (int v = 0; v < kVictims; ++v) {
    victim_lmm[v]->Free(victim_mem[v], kVictimPages * kPageSize);
  }
  kernel.MemFree(kstate, kKernelPages * kPageSize);
  victim_fs.Reset();
  raw_fs->Sync();
  for (size_t i = 0; i < principals.size(); ++i) {
    for (size_t r = 0; r < secure::kResourceCount; ++r) {
      out->quota_leaked += principals.at(i)->charged(static_cast<Resource>(r));
    }
  }
  raw_fs->Unmount();
  raw_fs.Reset();
  out->fsck_consistent = fs::Fsck(disk.get()).consistent;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!bench::ParseFlags(argc, argv, {{"--seeds", &opt.seeds},
                                      {"--seed-base", &opt.seed_base},
                                      {"--rounds", &opt.rounds},
                                      {"--json", &opt.json_path}})) {
    return 2;
  }

  std::printf("Monitor campaign: %d victims x %d rounds, 4 scribble sites, "
              "%d seed(s) from %llu\n\n",
              kVictims, opt.rounds, opt.seeds,
              static_cast<unsigned long long>(opt.seed_base));

  bench::Report report("monitor_campaign", opt.json_path);
  uint64_t injected_total = 0;
  uint64_t caught_total = 0;
  uint64_t guarded_mismatches = 0;
  uint64_t ablation_landed_total = 0;
  int ablation_corrupt_seeds = 0;

  for (int s = 0; s < opt.seeds; ++s) {
    uint64_t seed = opt.seed_base + static_cast<uint64_t>(s);
    RunResult guard{};
    RunResult ablate{};
    RunCampaign(/*enforce=*/true, seed, opt, &guard);
    RunCampaign(/*enforce=*/false, seed, opt, &ablate);

    std::printf("seed %llu: guarded injected=%llu caught=%llu mismatches=%llu "
                "victim_fail=%d | ablation landed=%llu corrupt_bytes=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(guard.injected),
                static_cast<unsigned long long>(guard.caught),
                static_cast<unsigned long long>(guard.kernel_mismatches),
                guard.victim_failures,
                static_cast<unsigned long long>(ablate.landed),
                static_cast<unsigned long long>(ablate.kernel_mismatches));

    // Guarded: 100% of injected scribbles caught, nothing corrupted.
    report.Check("guarded",
                 guard.injected != 0 && guard.denied == guard.injected &&
                     guard.landed == 0,
                 "denied=%llu landed=%llu of %llu injected (none may land)",
                 static_cast<unsigned long long>(guard.denied),
                 static_cast<unsigned long long>(guard.landed),
                 static_cast<unsigned long long>(guard.injected));
    report.Check("accounting",
                 guard.raised == guard.injected &&
                     guard.caught == guard.injected,
                 "raised=%llu caught=%llu of %llu injected",
                 static_cast<unsigned long long>(guard.raised),
                 static_cast<unsigned long long>(guard.caught),
                 static_cast<unsigned long long>(guard.injected));
    report.Check("victims",
                 guard.victim_failures == 0 && !guard.victim_killed &&
                     guard.fs_failures == 0,
                 "%d/%d ops failed, %d/%d fs ops failed, killed=%d",
                 guard.victim_failures, guard.victim_ops, guard.fs_failures,
                 guard.fs_ops, guard.victim_killed ? 1 : 0);
    report.Check("invariants",
                 guard.hostile_killed && guard.fsck_consistent &&
                     guard.quota_leaked == 0,
                 "hostile killed=%d, fsck=%d, leaked=%llu",
                 guard.hostile_killed ? 1 : 0, guard.fsck_consistent ? 1 : 0,
                 static_cast<unsigned long long>(guard.quota_leaked));
    // Ablation: the same schedule lands silently, uncounted.
    report.Check("ablation_run",
                 ablate.landed == ablate.injected && ablate.landed != 0 &&
                     ablate.raised == 0 && ablate.caught == 0 &&
                     !ablate.hostile_killed,
                 "landed=%llu of %llu injected, raised=%llu caught=%llu, "
                 "hostile killed=%d with enforcement off",
                 static_cast<unsigned long long>(ablate.landed),
                 static_cast<unsigned long long>(ablate.injected),
                 static_cast<unsigned long long>(ablate.raised),
                 static_cast<unsigned long long>(ablate.caught),
                 ablate.hostile_killed ? 1 : 0);

    injected_total += guard.injected;
    caught_total += guard.caught;
    guarded_mismatches += guard.kernel_mismatches + guard.translate_broken;
    ablation_landed_total += ablate.landed;
    if (ablate.kernel_mismatches > 0 || ablate.translate_broken > 0) {
      ++ablation_corrupt_seeds;
    }
    report.json.Push("seeds", bench::Json()
                                  .Set("seed", seed)
                                  .Set("injected", guard.injected)
                                  .Set("caught", guard.caught)
                                  .Set("pte", guard.pte_violations)
                                  .Set("dma", guard.dma_violations)
                                  .Set("guarded_mismatches",
                                       guard.kernel_mismatches)
                                  .Set("ablation_landed", ablate.landed)
                                  .Set("ablation_corrupt_bytes",
                                       ablate.kernel_mismatches));
  }

  std::printf("\nShape checks:\n");
  report.Check("catch_rate", caught_total == injected_total,
               "%llu/%llu injected violations caught",
               static_cast<unsigned long long>(caught_total),
               static_cast<unsigned long long>(injected_total));
  report.Check("integrity", guarded_mismatches == 0,
               "%llu guarded mismatches",
               static_cast<unsigned long long>(guarded_mismatches));
  // The ablation MUST corrupt somewhere, or the campaign proves nothing.
  report.Check("ablation", ablation_corrupt_seeds >= 1,
               "corrupt on %d/%d seeds (need >= 1)", ablation_corrupt_seeds,
               opt.seeds);

  report.json.Set("victims", kVictims)
      .Set("rounds", opt.rounds)
      .Set("seeds_run", opt.seeds)
      .Set("injected_total", injected_total)
      .Set("caught_total", caught_total)
      .Set("catch_rate", injected_total > 0
                             ? static_cast<double>(caught_total) /
                                   static_cast<double>(injected_total)
                             : 0.0)
      .Set("guarded_mismatches", guarded_mismatches)
      .Set("ablation_landed_total", ablation_landed_total)
      .Set("ablation_corrupt_seeds", ablation_corrupt_seeds)
      .Set("pass", report.passed());
  return report.Finish();
}
