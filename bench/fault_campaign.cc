// Fault-injection campaign: the robustness counterpart of the performance
// tables.
//
// Sweeps N deterministic seeds, each driving two workloads under injected
// faults plus the wire's own loss/reorder model:
//
//   TCP phase   — a pattern-verified transfer between an OSKit host (FreeBSD
//                 stack + Linux driver over COM) and a native-BSD host, with
//                 NIC faults (tx drop, rx corruption, lost/spurious IRQs),
//                 allocator OOM (lmm + mbuf import), and PIT skew armed.
//                 Odd seeds run the OSKit host with interrupt mitigation +
//                 polled RX (kOskitNapi) and a higher missed-IRQ rate: a
//                 lost IRQ there strands a whole coalesced batch, so the rx
//                 watchdog must demonstrably recover under mitigation too.
//   disk phase  — mkfs/mount the fs component on the Linux IDE driver, then
//                 write/sync/read-back files under disk errors, hangs and
//                 slowdowns, with workload buffers in a memdebug arena.
//
// Invariants asserted per seed, and in aggregate at the end:
//   * no panics (the process completing IS the assertion),
//   * no memdebug faults or leaks,
//   * data intact or an error surfaced — never silent corruption,
//   * every injected fault class shows nonzero recovery counters.
//
// Any violation prints a FAIL line (run_all.sh greps for it) and the run
// exits nonzero.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/amm/amm.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fault/fault.h"
#include "src/fs/ffs.h"
#include "src/libc/malloc.h"
#include "src/memdebug/memdebug.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

constexpr uint16_t kPort = 7000;
constexpr size_t kTransferBytes = 200 * 1024;

int g_failures = 0;

void Fail(uint64_t seed, const char* what) {
  std::printf("FAIL: seed %llu: %s\n", static_cast<unsigned long long>(seed),
              what);
  ++g_failures;
}

using Aggregate = std::map<std::string, uint64_t>;

void MergeSnapshot(const trace::CounterSnapshot& snap, Aggregate* agg) {
  for (const auto& [name, value] : snap) {
    // fault.* fire counts come from MergeFires (the env outlives the hosts'
    // registries and is the authoritative copy); skip them here so the two
    // sources do not double count.
    if (name.rfind("fault.", 0) == 0) {
      continue;
    }
    (*agg)[name] += value;
  }
}

void MergeFires(const fault::FaultEnv& env, Aggregate* agg) {
  env.ForEachSite([agg](const char* site, const fault::FaultSpec&, bool,
                        uint64_t, uint64_t fires) {
    (*agg)[std::string("fault.") + site] += fires;
  });
}

fault::FaultSpec Prob(uint32_t pct, uint64_t arg = 0) {
  fault::FaultSpec spec;
  spec.probability_percent = pct;
  spec.arg = arg;
  return spec;
}

// ---------------------------------------------------------------------------
// TCP phase
// ---------------------------------------------------------------------------

void RunTcpPhase(uint64_t seed, Aggregate* agg) {
  fault::FaultEnv fenv(seed);

  EthernetWire::Config wc;
  wc.loss_percent = static_cast<uint32_t>(seed % 3);  // 0-2 %
  wc.reorder_jitter_ns = (seed % 4) * 100 * kNsPerUs;
  wc.fault_seed = seed;
  World world(wc, &fenv);
  const bool napi = (seed % 2) == 1;
  Host& a = world.AddHost("a",
                          napi ? NetConfig::kOskitNapi : NetConfig::kOskit);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  // Arm only after both hosts have booted: boot-time allocation is not the
  // robustness contract under test.  Under mitigation, IRQs are raised far
  // less often (once per coalesced batch) and only the quiet-tail ones can
  // strand (mid-stream, the next arrival re-fires the threshold), so napi
  // seeds push the miss rate up to make watchdog recoveries a certainty
  // across the sweep rather than a coin flip.
  fenv.Arm("nic.tx.drop", Prob(2));
  fenv.Arm("nic.rx.corrupt", Prob(2));
  fenv.Arm("nic.rx.miss_irq", Prob(napi ? 30 : 4));
  fenv.Arm("nic.irq.spurious", Prob(2));
  fenv.Arm("mbuf.rx_alloc", Prob(2));
  fenv.Arm("lmm.alloc", Prob(1));
  fenv.Arm("pit.skew", Prob(10, /*skew percent=*/20));

  // Nothing in the stack needs the periodic PIT (protocol timers run off the
  // simulation clock), so run it here to exercise skew + drift compensation.
  uint64_t ticks = 0;
  a.kernel->SetTimer(100, [&ticks] { ++ticks; });

  bool listening = false;
  bool server_error = false;
  bool client_error = false;
  bool client_done = false;
  std::vector<uint8_t> got;
  got.reserve(kTransferBytes);

  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    if (!Ok(listener->Bind(SockAddr{kInetAny, kPort})) ||
        !Ok(listener->Listen(1))) {
      server_error = true;
      return;
    }
    listening = true;
    SockAddr peer;
    ComPtr<Socket> conn;
    if (!Ok(listener->Accept(&peer, conn.Receive()))) {
      server_error = true;
      return;
    }
    uint8_t buf[4096];
    size_t n = 0;
    Error err = Error::kOk;
    while (Ok(err = conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      got.insert(got.end(), buf, buf + n);
    }
    if (!Ok(err)) {
      server_error = true;
    }
    size_t sent = 0;
    conn->Send("done", 4, &sent);
    conn->Shutdown(SockShutdown::kWrite);
  });

  world.sim().Spawn("client", [&] {
    world.sim().WaitUntil([&] { return listening; });
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    if (!Ok(conn->Connect(SockAddr{a.addr, kPort}))) {
      client_error = true;
      return;
    }
    uint8_t buf[4096];
    size_t done = 0;
    while (done < kTransferBytes) {
      size_t chunk = sizeof(buf);
      if (chunk > kTransferBytes - done) {
        chunk = kTransferBytes - done;
      }
      for (size_t i = 0; i < chunk; ++i) {
        buf[i] = bench::PatternByte(seed, done + i);
      }
      size_t n = 0;
      if (!Ok(conn->Send(buf, chunk, &n))) {
        client_error = true;
        return;
      }
      done += n;
    }
    conn->Shutdown(SockShutdown::kWrite);
    size_t n = 0;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
    }
    client_done = true;
  });

  // The deadline must clear TCP's worst case, not the happy path: one
  // retransmit give-up episode (RTO doubling from the BSD-default 6 s to the
  // 64 s cap, twelve times) takes ~660 simulated seconds before the
  // connection aborts with kTimedOut.
  Simulation::RunResult result = world.sim().Run(1800 * kNsPerSec);
  a.kernel->StopTimer();
  fenv.DisarmAll();

  if (result != Simulation::RunResult::kAllDone) {
    Fail(seed, result == Simulation::RunResult::kDeadlock
                   ? "tcp phase deadlocked"
                   : "tcp phase hit the simulated-time deadline");
  } else if (server_error || client_error) {
    // An error surfaced cleanly: acceptable under injected faults, as long
    // as it was REPORTED.  Nothing to verify beyond that.
    (*agg)["campaign.tcp.errors_surfaced"] += 1;
  } else {
    bool intact = client_done && got.size() == kTransferBytes;
    if (!intact) {
      Fail(seed, "tcp transfer truncated without an error");
    }
    for (size_t i = 0; intact && i < got.size(); ++i) {
      if (got[i] != bench::PatternByte(seed, i)) {
        Fail(seed, "SILENT CORRUPTION: tcp payload mismatch");
        intact = false;
      }
    }
    if (intact) {
      (*agg)["campaign.tcp.transfers_ok"] += 1;
    }
  }

  // Keyed separately so the aggregate can require that the poll path and
  // the watchdog-under-mitigation each acted on the napi seeds specifically
  // (the plain glue.recov.rx_watchdog sum would be satisfied by the
  // per-frame seeds alone).
  if (napi) {
    (*agg)["campaign.napi.polls"] +=
        a.trace.registry.Value("glue.rx.poll.polls");
    (*agg)["campaign.napi.watchdog_recoveries"] +=
        a.trace.registry.Value("glue.recov.rx_watchdog");
    (*agg)["campaign.napi.coalesced_irqs"] +=
        a.trace.registry.Value("nic.rx.coalesce.irqs");
  }

  MergeSnapshot(a.trace.registry.Snapshot(), agg);
  MergeSnapshot(b.trace.registry.Snapshot(), agg);
  MergeFires(fenv, agg);
}

// ---------------------------------------------------------------------------
// Disk/filesystem phase
// ---------------------------------------------------------------------------

void RunDiskPhase(uint64_t seed, Aggregate* agg) {
  trace::TraceEnv tenv;
  fault::FaultEnv fenv(seed ^ 0xd15c);
  fenv.BindTrace(&tenv);  // a handed env is bound by its owner, not the kernel
  Simulation sim;
  Machine machine(&sim, Machine::Config{});
  machine.AddDisk(16 * 1024 * 1024 / 512);
  KernelEnv kernel(&machine, MultiBootInfo{}, KernelEnv::SleepMode::kFiber,
                   &tenv, &fenv);
  machine.cpu().EnableInterrupts();
  FdevEnv fdev = DefaultFdevEnv(&kernel);
  DeviceRegistry registry;
  linuxdev::InitLinuxIde(fdev, &machine, &registry);
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());

  // Workload buffers live in a memdebug arena: overruns, double frees and
  // leaks in the recovery paths show up as faults here.
  MemDebug md(libc::HostMemEnv());

  constexpr int kFiles = 6;
  constexpr size_t kFileBytes = 6000;
  bool phase_error = false;

  sim.Spawn("disk-workload", [&] {
    if (!Ok(fs::Mkfs(blkio.get()))) {
      Fail(seed, "mkfs failed on a clean disk");
      phase_error = true;
      return;
    }
    FileSystem* raw = nullptr;
    if (!Ok(fs::Offs::Mount(blkio.get(), {.trace = &tenv}, &raw))) {
      Fail(seed, "mount failed on a clean disk");
      phase_error = true;
      return;
    }
    ComPtr<FileSystem> fs(raw);
    ComPtr<Dir> root;
    fs->GetRoot(root.Receive());

    // Faults go live only once the filesystem is up: transient I/O errors,
    // a hanging controller (watchdog-reset territory), and slow completions
    // stretched far past the driver's 50 ms watchdog.
    fenv.Arm("disk.read.error", Prob(3));
    fenv.Arm("disk.write.error", Prob(3));
    // The hang and slowdown trigger on a fixed request ordinal so EVERY seed
    // walks the watchdog-reset path at least twice, on top of a small random
    // chance of more.
    fault::FaultSpec stuck = Prob(1);
    stuck.nth_call = 5;
    stuck.max_fires = 2;
    fenv.Arm("disk.stuck", stuck);
    fault::FaultSpec slow = Prob(2, /*delay multiplier=*/1000);
    slow.nth_call = 9;
    fenv.Arm("disk.slow", slow);

    bool written_ok[kFiles] = {};
    char name[16];
    for (int f = 0; f < kFiles; ++f) {
      std::snprintf(name, sizeof(name), "file%d", f);
      auto* data = static_cast<uint8_t*>(md.Alloc(kFileBytes, "campaign.file"));
      for (size_t i = 0; i < kFileBytes; ++i) {
        data[i] = bench::PatternByte(seed + f, i);
      }
      ComPtr<File> file;
      if (!Ok(root->Create(name, 0644, file.Receive()))) {
        md.Free(data);
        continue;  // error surfaced; nothing on disk to verify
      }
      size_t actual = 0;
      Error err = file->Write(data, 0, kFileBytes, &actual);
      written_ok[f] = Ok(err) && actual == kFileBytes;
      md.Free(data);
    }
    fs->Sync();

    // Verification runs with faults disarmed: whatever the filesystem
    // REPORTED as durably written must read back intact.
    fenv.DisarmAll();
    for (int f = 0; f < kFiles; ++f) {
      if (!written_ok[f]) {
        continue;
      }
      std::snprintf(name, sizeof(name), "file%d", f);
      ComPtr<File> file;
      if (!Ok(root->Lookup(name, file.Receive()))) {
        Fail(seed, "SILENT CORRUPTION: written file vanished");
        continue;
      }
      auto* back = static_cast<uint8_t*>(md.Alloc(kFileBytes, "campaign.readback"));
      size_t actual = 0;
      Error err = file->Read(back, 0, kFileBytes, &actual);
      if (!Ok(err) || actual != kFileBytes) {
        Fail(seed, "readback of a committed file failed after disarm");
      } else {
        for (size_t i = 0; i < kFileBytes; ++i) {
          if (back[i] != bench::PatternByte(seed + f, i)) {
            Fail(seed, "SILENT CORRUPTION: file payload mismatch");
            break;
          }
        }
      }
      md.Free(back);
      (*agg)["campaign.fs.files_verified"] += 1;
    }
    root.Reset();
    fs->Unmount();
  });

  Simulation::RunResult result = sim.Run(600 * kNsPerSec);
  fenv.DisarmAll();
  if (result != Simulation::RunResult::kAllDone && !phase_error) {
    Fail(seed, result == Simulation::RunResult::kDeadlock
                   ? "disk phase deadlocked"
                   : "disk phase hit the simulated-time deadline");
  }

  // The AMM is exercised directly: its address-space maps are pure data
  // structures, so the fault contract (kNoSpace on injected OOM, clean
  // retry after) is checked without a device in the loop.
  Amm amm(0, 1 << 20);
  amm.SetFaultEnv(&fenv);
  fault::FaultSpec nth;
  nth.nth_call = 1;
  fenv.Arm("amm.alloc", nth);
  uint64_t addr = 0;
  if (amm.Allocate(&addr, 4096, Amm::kAllocated) != Error::kNoSpace) {
    Fail(seed, "amm did not surface the injected allocation failure");
  } else if (!Ok(amm.Allocate(&addr, 4096, Amm::kAllocated))) {
    Fail(seed, "amm retry after injected failure did not succeed");
  } else {
    (*agg)["campaign.amm.recoveries"] += 1;
  }
  fenv.DisarmAll();

  if (md.CheckAll() != 0) {
    Fail(seed, "memdebug fence check found faults");
  }
  if (md.DumpLeaks() != 0) {
    Fail(seed, "memdebug found leaked workload buffers");
  }
  if (md.faults_detected() != 0) {
    Fail(seed, "memdebug detected allocation faults during the workload");
  }

  MergeSnapshot(tenv.registry.Snapshot(), agg);
  MergeFires(fenv, agg);
}

// ---------------------------------------------------------------------------
// Aggregate acceptance: every fault class must have fired AND the matching
// recovery machinery must have acted at least once across the sweep.
// ---------------------------------------------------------------------------

int CheckAggregate(const Aggregate& agg, uint64_t seeds) {
  std::string title =
      "aggregate recovery checklist (" + std::to_string(seeds) + " seeds)";
  return bench::PrintChecklist(title, agg, {
      {"nic tx-drop faults fired", {"fault.nic.tx.drop"}},
      {"nic rx-corrupt faults fired", {"fault.nic.rx.corrupt"}},
      {"nic missed-IRQ faults fired", {"fault.nic.rx.miss_irq"}},
      {"nic spurious-IRQ faults fired", {"fault.nic.irq.spurious"}},
      {"mbuf-import OOM faults fired", {"fault.mbuf.rx_alloc"}},
      {"lmm OOM faults fired", {"fault.lmm.alloc"}},
      {"amm OOM faults fired", {"fault.amm.alloc"}},
      {"pit skew faults fired", {"fault.pit.skew"}},
      {"disk read-error faults fired", {"fault.disk.read.error"}},
      {"disk write-error faults fired", {"fault.disk.write.error"}},
      {"disk hang faults fired", {"fault.disk.stuck"}},
      {"disk slowdown faults fired", {"fault.disk.slow"}},
      {"tcp retransmitted around loss", {"net.tcp.retransmits"}},
      {"corruption caught by checksums",
       {"net.ip.bad_checksum", "net.tcp.bad_checksum"}},
      {"rx watchdog recovered lost IRQs",
       {"glue.recov.rx_watchdog", "bsd.rx.watchdog_recoveries"}},
      {"rx poll path exercised under faults", {"campaign.napi.polls"}},
      {"rx watchdog recovered under mitigation",
       {"campaign.napi.watchdog_recoveries"}},
      {"coalesced IRQs raised under faults",
       {"campaign.napi.coalesced_irqs"}},
      {"rx import OOM dropped cleanly",
       {"net.rx.alloc_drops", "bsd.rx.alloc_drops"}},
      {"driver OOM surfaced or dropped cleanly",
       {"glue.recv.oom_drops", "net.tx.errors"}},
      {"pit drift was compensated", {"machine.pit.skew_compensations"}},
      {"ide retried transient errors", {"glue.ide.retries"}},
      {"ide watchdog reset a hung controller", {"glue.ide.watchdog_resets"}},
      {"amm retried after injected OOM", {"campaign.amm.recoveries"}},
  });
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 16;
  const char* json_path = nullptr;
  if (!bench::ParseFlags(argc, argv,
                         {{"--seeds", &seeds}, {"--json", &json_path}})) {
    return 2;
  }

  std::printf("fault campaign: %llu seeds, tcp + disk phases\n",
              static_cast<unsigned long long>(seeds));
  Aggregate agg;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    RunTcpPhase(seed, &agg);
    RunDiskPhase(seed, &agg);
  }
  int per_seed = g_failures;
  int missing = CheckAggregate(agg, seeds);
  g_failures += missing;

  std::printf("\ncampaign: %llu seeds swept, %llu transfers ok, "
              "%llu files verified, %d failures\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(agg["campaign.tcp.transfers_ok"]),
              static_cast<unsigned long long>(agg["campaign.fs.files_verified"]),
              g_failures);

  bench::Report report("fault_campaign", json_path);
  report.Check("seeds", per_seed == 0, "%d per-seed failures", per_seed);
  report.Check("checklist", missing == 0, "%d recovery classes without evidence",
               missing);
  report.json.Set("seeds", seeds)
      .Set("failures", g_failures)
      .Set("counters", bench::Json::Object(agg));
  return report.Finish();
}
