// Crash-point campaign: the durability counterpart of the fault campaign.
//
// Every run mounts the journaled filesystem on the Linux IDE driver with the
// disk's volatile write cache enabled, executes a deterministic metadata
// workload, and kills the power at a chosen durable-write index under a
// seeded cut policy (drop-all, drop-subset, reorder, torn sector run).  The
// post-crash image is then remounted host-side (journal replay + fsck) and
// held to three assertions:
//
//   (a) the volume is consistent — fsck finds no problems, no orphaned
//       blocks, no leaked inodes,
//   (b) everything an acknowledged Sync covered is intact byte-for-byte,
//   (c) the recovered state equals the model at SOME operation boundary at
//       or after the last acknowledged Sync — transactions are atomic, so
//       no in-between state may ever become visible.
//
// Phases:
//   A — exhaustive: a power cut at EVERY durable write index (drop-all),
//   B — lossy: seeded drop-subset / reorder / tear cuts across the sweep,
//   C — TCP-fed: an OSKit host persists a verified TCP stream, cut mid-run,
//   D — ablation: the same cuts against a journal-free volume MUST corrupt
//       it at least once, proving the detector has teeth.
//
// Aggregate acceptance additionally requires the recovery machinery to have
// demonstrably acted: fs.journal.replays, fs.journal.discarded_txns and
// disk.wcache.dropped all nonzero across the sweep.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/stack.h"
#include "src/com/memblkio.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

constexpr uint64_t kDiskSectors = 4 * 1024 * 1024 / 512;
constexpr uint16_t kPort = 7100;
constexpr size_t kStreamBytes = 48 * 1024;
const char* const kDirMarker = "\x01:dir";

int g_failures = 0;

// --stack: the blkio layer composition mounted between the filesystem and
// the IDE device, listed bottom-up ("stripe,checksum,cache" = cache on
// top).  Empty = the classic direct mount.  The identical composition is
// rebuilt over the post-crash image for recovery, so fsck sees the stack's
// logical geometry with fresh (volatile) layer state — exactly what a
// reboot gives.
std::string g_stack;

void Fail(const char* phase, uint64_t run, const char* what) {
  std::printf("FAIL: %s run %llu [stack=%s]: %s\n", phase,
              static_cast<unsigned long long>(run),
              g_stack.empty() ? "plain" : g_stack.c_str(), what);
  ++g_failures;
}

using Aggregate = std::map<std::string, uint64_t>;
// Root-namespace model: file name -> content (kDirMarker for directories).
using Model = std::map<std::string, std::string>;

void MergeSnapshot(const trace::CounterSnapshot& snap, Aggregate* agg) {
  for (const auto& [name, value] : snap) {
    (*agg)[name] += value;
  }
}

std::string PatternContent(uint64_t salt, size_t bytes) {
  std::string content(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    content[i] = static_cast<char>(bench::PatternByte(salt, i));
  }
  return content;
}

// ---------------------------------------------------------------------------
// The local metadata workload and its operation-boundary model.
//
// Journal commits happen only at metadata-operation entry (NoteMetaOp) and
// at explicit Sync, so the set of states a crash may legally expose is
// exactly {model after op j : j >= op index of the last acknowledged Sync}.
// The workload records the model after every operation to let verification
// check membership.
// ---------------------------------------------------------------------------

struct WorkloadTrace {
  std::vector<Model> snapshots;  // model after op 0, 1, ...
  size_t last_acked = 0;         // snapshot index covered by the last ok Sync
  bool mount_ok = false;
  bool finished = false;         // ran to completion and unmounted (no cut)
};

// One create+write pair.  The write is not a commit boundary on its own (no
// NoteMetaOp), so the pair snapshots as a single op.
bool CreateFile(Dir* root, Model* model, const std::string& name,
                const std::string& content) {
  ComPtr<File> f;
  if (!Ok(root->Create(name.c_str(), 0644, f.Receive()))) {
    return false;
  }
  size_t actual = 0;
  if (!Ok(f->Write(content.data(), 0, content.size(), &actual)) ||
      actual != content.size()) {
    return false;
  }
  (*model)[name] = content;
  return true;
}

// Runs the deterministic workload against a mounted root.  Stops early once
// the armed power cut fires (the disk reports every request with kIo).
void RunOps(FileSystem* fs, Dir* root, uint64_t salt, WorkloadTrace* t) {
  Model model;
  auto snap = [&] { t->snapshots.push_back(model); };
  snap();  // op 0: the empty, freshly mounted state
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      std::string name =
          "r" + std::to_string(round) + "f" + std::to_string(i);
      size_t bytes = 600 + 977 * ((round * 3 + i) % 5);
      if (!CreateFile(root, &model, name, PatternContent(salt + round * 16 + i, bytes))) {
        return;
      }
      snap();
    }
    std::string dir = "d" + std::to_string(round);
    if (!Ok(root->Mkdir(dir.c_str(), 0755))) {
      return;
    }
    model[dir] = kDirMarker;
    snap();
    if (round >= 1) {
      std::string victim = "r" + std::to_string(round - 1) + "f1";
      if (!Ok(root->Unlink(victim.c_str()))) {
        return;
      }
      model.erase(victim);
      snap();
      std::string old_name = "r" + std::to_string(round - 1) + "f2";
      std::string new_name = "m" + std::to_string(round);
      if (!Ok(root->Rename(old_name.c_str(), root, new_name.c_str()))) {
        return;
      }
      model[new_name] = model[old_name];
      model.erase(old_name);
      snap();
    }
    if (round >= 2) {
      std::string dead_dir = "d" + std::to_string(round - 2);
      if (!Ok(root->Rmdir(dead_dir.c_str()))) {
        return;
      }
      model.erase(dead_dir);
      snap();
    }
    if (!Ok(fs->Sync())) {
      return;
    }
    t->last_acked = t->snapshots.size() - 1;
  }
}

// Reads the mounted root back into a Model (content per regular file,
// kDirMarker per directory).
bool ObserveState(Dir* root, Model* out) {
  uint64_t offset = 0;
  DirEntry entries[16];
  size_t count = 0;
  for (;;) {
    if (!Ok(root->ReadDir(&offset, entries, 16, &count))) {
      return false;
    }
    if (count == 0) {
      return true;
    }
    for (size_t i = 0; i < count; ++i) {
      std::string name(entries[i].name);
      if (name == "." || name == "..") {
        continue;
      }
      if (entries[i].type == FileType::kDirectory) {
        (*out)[name] = kDirMarker;
        continue;
      }
      ComPtr<File> f;
      if (!Ok(root->Lookup(name.c_str(), f.Receive()))) {
        return false;
      }
      FileStat stat;
      if (!Ok(f->GetStat(&stat))) {
        return false;
      }
      std::string content(stat.size, '\0');
      size_t actual = 0;
      if (stat.size != 0 &&
          (!Ok(f->Read(content.data(), 0, content.size(), &actual)) ||
           actual != content.size())) {
        return false;
      }
      (*out)[name] = content;
    }
  }
}

// ---------------------------------------------------------------------------
// One crash case: workload under an armed cut, then host-side recovery.
// ---------------------------------------------------------------------------

struct CaseResult {
  bool cut_fired = false;
  bool consistent = false;     // fsck (after replay) found no problems
  bool state_valid = false;    // observed state matches a legal op boundary
  uint64_t total_writes = 0;   // durable writes in an uncut probe run
};

// arm_at == 0 runs the workload uncut (the probe that measures the sweep).
CaseResult RunLocalCase(const char* phase, uint64_t run_id, bool journaled,
                        uint64_t arm_at, DiskHw::CutPolicy policy,
                        uint64_t seed, bool expect_consistent, Aggregate* agg) {
  trace::TraceEnv tenv;
  Simulation sim;
  Machine machine(&sim, Machine::Config{});
  DiskHw* disk = machine.AddDisk(kDiskSectors);
  KernelEnv kernel(&machine, MultiBootInfo{}, KernelEnv::SleepMode::kFiber,
                   &tenv, nullptr);
  machine.cpu().EnableInterrupts();
  FdevEnv fdev = DefaultFdevEnv(&kernel);
  DeviceRegistry registry;
  linuxdev::InitLinuxIde(fdev, &machine, &registry);
  auto device = registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = bench::ApplyStack(
      ComPtr<BlkIo>::FromQuery(device.get()), g_stack, &tenv);

  CaseResult result;
  WorkloadTrace t;
  sim.Spawn("workload", [&] {
    fs::MkfsOptions mkfs;
    mkfs.journal_blocks = journaled ? fs::MkfsOptions::kAutoJournal : 0;
    if (!Ok(fs::Mkfs(blkio.get(), mkfs))) {
      Fail(phase, run_id, "mkfs failed on a healthy disk");
      return;
    }
    // Everything before this point (the formatted image) is durable; the
    // workload's own writes go through the volatile cache.
    disk->EnableWriteCache(true);
    fs::MountOptions mount;
    mount.trace = &tenv;
    FileSystem* raw = nullptr;
    if (!Ok(fs::Offs::Mount(blkio.get(), mount, &raw))) {
      Fail(phase, run_id, "mount failed on a healthy disk");
      return;
    }
    t.mount_ok = true;
    ComPtr<FileSystem> fs(raw);
    ComPtr<Dir> root;
    fs->GetRoot(root.Receive());
    if (arm_at != 0) {
      disk->ArmPowerCut(arm_at, policy, seed);
    }
    RunOps(fs.get(), root.get(), seed, &t);
    root.Reset();
    if (!disk->powered_off() && Ok(fs->Unmount())) {
      t.finished = true;
    }
  });
  if (sim.Run(600 * kNsPerSec) != Simulation::RunResult::kAllDone) {
    Fail(phase, run_id, "workload deadlocked or timed out");
    return result;
  }
  result.cut_fired = disk->powered_off();
  result.total_writes = disk->writes_completed();
  if (!t.mount_ok) {
    return result;
  }

  if (arm_at == 0) {
    // Probe run: no crash to recover from; just sanity-check completion.
    if (!t.finished) {
      Fail(phase, run_id, "uncut probe run did not complete");
    }
    MergeSnapshot(tenv.registry.Snapshot(), agg);
    return result;
  }

  // Host-side recovery of the post-crash image, through the same stack.
  auto post_mem = MemBlkIo::CreateFrom(disk->raw(), disk->raw_size(), 512);
  ComPtr<BlkIo> post = bench::ApplyStack(
      ComPtr<BlkIo>::FromQuery(post_mem.get()), g_stack, &tenv);
  fs::FsckOptions fsck_options;
  fsck_options.replay_journal = true;
  fs::FsckReport report = fs::Fsck(post.get(), fsck_options);
  result.consistent = report.superblock_valid && report.problems.empty();
  (*agg)["campaign.crash.replayed_txns"] += report.journal_replayed_txns;
  (*agg)["campaign.crash.discarded_txns"] += report.journal_discarded_txns;

  Model observed;
  if (result.consistent) {
    fs::MountOptions mount;
    mount.trace = &tenv;
    FileSystem* raw = nullptr;
    if (Ok(fs::Offs::Mount(post.get(), mount, &raw))) {
      ComPtr<FileSystem> fs(raw);
      ComPtr<Dir> root;
      fs->GetRoot(root.Receive());
      if (ObserveState(root.get(), &observed)) {
        for (size_t j = t.last_acked; j < t.snapshots.size(); ++j) {
          if (observed == t.snapshots[j]) {
            result.state_valid = true;
            break;
          }
        }
      }
      root.Reset();
      // Snapshot while the mount (and its fs.journal.* bindings) is alive.
      MergeSnapshot(tenv.registry.Snapshot(), agg);
      fs->Unmount();
    } else if (expect_consistent) {
      Fail(phase, run_id, "post-crash remount failed after successful fsck");
    }
  } else {
    MergeSnapshot(tenv.registry.Snapshot(), agg);
  }

  if (expect_consistent) {
    if (!result.consistent) {
      Fail(phase, run_id, "post-crash volume failed fsck after replay");
      for (const std::string& p : report.problems) {
        std::printf("      fsck: %s\n", p.c_str());
      }
    } else if (!result.state_valid) {
      Fail(phase, run_id,
           "recovered state matches no legal operation boundary "
           "(lost acknowledged data or exposed a partial transaction)");
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Phase C: a TCP-fed workload.  One OSKit host persists a pattern-checked
// stream to its disk with a Sync per chunk; power dies mid-transfer.
// ---------------------------------------------------------------------------

void RunTcpCase(uint64_t run_id, uint64_t arm_at, DiskHw::CutPolicy policy,
                uint64_t seed, Aggregate* agg) {
  World world(EthernetWire::Config{}, nullptr);
  Host& fs_host = world.AddHost("fs", NetConfig::kOskit);
  Host& src_host = world.AddHost("src", NetConfig::kNativeBsd);
  // The disk arrives after the kernel booted, so its driver glue (and the
  // campaign's own counter merge below) is wired here by hand.
  DiskHw* disk = fs_host.machine->AddDisk(kDiskSectors);
  linuxdev::InitLinuxIde(fs_host.fdev, fs_host.machine.get(),
                         &fs_host.registry);
  auto device = fs_host.registry.LookupByName("hda");
  ComPtr<BlkIo> blkio = ComPtr<BlkIo>::FromQuery(device.get());

  size_t acked_bytes = 0;
  bool listening = false;
  bool mount_ok = false;

  world.sim().Spawn("fs-server", [&] {
    if (!Ok(fs::Mkfs(blkio.get()))) {
      Fail("tcp", run_id, "mkfs failed");
      return;
    }
    disk->EnableWriteCache(true);
    fs::MountOptions mount;
    mount.trace = &fs_host.trace;
    FileSystem* raw = nullptr;
    if (!Ok(fs::Offs::Mount(blkio.get(), mount, &raw))) {
      Fail("tcp", run_id, "mount failed");
      return;
    }
    mount_ok = true;
    ComPtr<FileSystem> fs(raw);
    ComPtr<Dir> root;
    fs->GetRoot(root.Receive());
    ComPtr<File> file;
    if (!Ok(root->Create("tcpdata", 0644, file.Receive()))) {
      return;
    }
    ComPtr<Socket> listener = fs_host.MakeSocket(SockType::kStream);
    if (!Ok(listener->Bind(SockAddr{kInetAny, kPort})) ||
        !Ok(listener->Listen(1))) {
      Fail("tcp", run_id, "listen failed");
      return;
    }
    listening = true;
    SockAddr peer;
    ComPtr<Socket> conn;
    if (!Ok(listener->Accept(&peer, conn.Receive()))) {
      return;
    }
    disk->ArmPowerCut(arm_at, policy, seed);
    uint8_t buf[4096];
    size_t received = 0;
    size_t n = 0;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      size_t actual = 0;
      if (!Ok(file->Write(buf, received, n, &actual)) || actual != n) {
        break;  // the cut fired mid-write; stop persisting
      }
      received += n;
      if (!Ok(fs->Sync())) {
        break;
      }
      acked_bytes = received;  // this prefix was acknowledged durable
    }
  });

  world.sim().Spawn("stream-source", [&] {
    world.sim().WaitUntil([&] { return listening; });
    ComPtr<Socket> conn = src_host.MakeSocket(SockType::kStream);
    if (!Ok(conn->Connect(SockAddr{fs_host.addr, kPort}))) {
      return;
    }
    uint8_t buf[4096];
    size_t done = 0;
    while (done < kStreamBytes) {
      size_t chunk = sizeof(buf);
      if (chunk > kStreamBytes - done) {
        chunk = kStreamBytes - done;
      }
      for (size_t i = 0; i < chunk; ++i) {
        buf[i] = bench::PatternByte(seed, done + i);
      }
      size_t n = 0;
      if (!Ok(conn->Send(buf, chunk, &n))) {
        return;  // the server died with the power: expected
      }
      done += n;
    }
    conn->Shutdown(SockShutdown::kWrite);
    size_t n = 0;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
    }
  });

  if (world.sim().Run(1800 * kNsPerSec) != Simulation::RunResult::kAllDone) {
    Fail("tcp", run_id, "tcp phase deadlocked or timed out");
    return;
  }
  if (!mount_ok) {
    return;
  }
  if (!disk->powered_off()) {
    // The stream fit before the cut index: nothing to recover, still count.
    (*agg)["campaign.tcp.uncut_runs"] += 1;
    return;
  }

  auto post = MemBlkIo::CreateFrom(disk->raw(), disk->raw_size(), 512);
  fs::FsckOptions fsck_options;
  fsck_options.replay_journal = true;
  fs::FsckReport report = fs::Fsck(post.get(), fsck_options);
  if (!report.superblock_valid || !report.problems.empty()) {
    Fail("tcp", run_id, "post-crash volume failed fsck after replay");
    return;
  }
  trace::TraceEnv vtenv;
  fs::MountOptions mount;
  mount.trace = &vtenv;
  FileSystem* raw = nullptr;
  if (!Ok(fs::Offs::Mount(post.get(), mount, &raw))) {
    Fail("tcp", run_id, "post-crash remount failed");
    return;
  }
  ComPtr<FileSystem> fs(raw);
  ComPtr<Dir> root;
  fs->GetRoot(root.Receive());
  ComPtr<File> file;
  if (!Ok(root->Lookup("tcpdata", file.Receive()))) {
    if (acked_bytes != 0) {
      Fail("tcp", run_id, "acknowledged stream file vanished");
    }
  } else {
    FileStat stat;
    file->GetStat(&stat);
    bool ok = stat.size >= acked_bytes && stat.size <= kStreamBytes;
    std::string content(stat.size, '\0');
    size_t actual = 0;
    if (ok && stat.size != 0) {
      ok = Ok(file->Read(content.data(), 0, content.size(), &actual)) &&
           actual == content.size();
    }
    for (size_t i = 0; ok && i < content.size(); ++i) {
      if (static_cast<uint8_t>(content[i]) != bench::PatternByte(seed, i)) {
        ok = false;
      }
    }
    if (!ok) {
      Fail("tcp", run_id, "recovered stream prefix shorter than the "
                          "acknowledged bytes or corrupted");
    } else {
      (*agg)["campaign.tcp.streams_verified"] += 1;
      (*agg)["campaign.tcp.acked_bytes"] += acked_bytes;
    }
  }
  root.Reset();
  MergeSnapshot(vtenv.registry.Snapshot(), agg);
  fs->Unmount();
  // The host-side disk counters were bound to no kernel (late AddDisk), so
  // fold them in by hand.
  (*agg)["disk.wcache.writes"] += disk->wcache_writes_counter().value();
  (*agg)["disk.wcache.flushes"] += disk->wcache_flushes_counter().value();
  (*agg)["disk.wcache.dropped"] += disk->wcache_dropped_counter().value();
  (*agg)["disk.wcache.torn"] += disk->wcache_torn_counter().value();
}

// ---------------------------------------------------------------------------
// Aggregate acceptance.
// ---------------------------------------------------------------------------

int CheckAggregate(const Aggregate& agg) {
  return bench::PrintChecklist("aggregate durability checklist", agg, {
      {"journal transactions replayed at mount",
       {"fs.journal.replays", "campaign.crash.replayed_txns"}},
      {"torn transactions discarded at mount",
       {"fs.journal.discarded_txns", "campaign.crash.discarded_txns"}},
      {"unflushed writes dropped by power cuts", {"disk.wcache.dropped"}},
      {"sector runs torn by power cuts", {"disk.wcache.torn"}},
      {"transactions committed", {"fs.journal.commits"}},
      {"write barriers issued", {"fs.cache.barriers"}},
      {"tcp stream prefixes verified", {"campaign.tcp.streams_verified"}},
      {"ablation cuts detected by fsck or the model",
       {"campaign.ablation.detected"}},
  });
}

// The local phases (probe, exhaustive, lossy, ablation) for ONE stack
// composition.  Results accumulate into *totals for the final report.
struct SweepTotals {
  uint64_t runs_a = 0;
  uint64_t runs_b = 0;
  uint64_t ablation_runs = 0;
  uint64_t detected = 0;
  uint64_t durable_writes = 0;  // the FIRST sweep's probe measurement
};

void RunLocalPhases(uint64_t seeds, uint64_t seed_base, uint64_t stride,
                    Aggregate* agg, SweepTotals* totals) {
  // Probe: learn how many durable writes the journaled workload issues.
  CaseResult probe =
      RunLocalCase("probe", 0, /*journaled=*/true, /*arm_at=*/0,
                   DiskHw::CutPolicy::kDropAll, 0, true, agg);
  uint64_t total = probe.total_writes;
  std::printf("crash campaign [stack=%s]: %llu durable writes per run, "
              "stride %llu, %llu seeds\n",
              g_stack.empty() ? "plain" : g_stack.c_str(),
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(stride),
              static_cast<unsigned long long>(seeds));
  if (total == 0) {
    Fail("probe", 0, "workload issued no writes");
  }
  if (totals->durable_writes == 0) {
    totals->durable_writes = total;
  }

  // Phase A: exhaustive drop-all cut at every durable write index.
  uint64_t runs_a = 0;
  uint64_t fired_a = 0;
  for (uint64_t k = 1; k <= total; k += stride) {
    CaseResult r = RunLocalCase("exhaustive", k, true, k,
                                DiskHw::CutPolicy::kDropAll, 1000 + k, true,
                                agg);
    ++runs_a;
    fired_a += r.cut_fired ? 1 : 0;
  }
  if (runs_a != 0 && fired_a == 0) {
    Fail("exhaustive", 0, "no cut ever fired");
  }
  (*agg)["campaign.crash.exhaustive_runs"] += runs_a;
  totals->runs_a += runs_a;

  // Phase B: lossy policies (subset / reorder / tear) across the same sweep,
  // once per seed.
  const DiskHw::CutPolicy lossy[] = {DiskHw::CutPolicy::kDropSubset,
                                     DiskHw::CutPolicy::kReorder,
                                     DiskHw::CutPolicy::kTear};
  uint64_t runs_b = 0;
  for (uint64_t seed = seed_base + 1; seed <= seed_base + seeds; ++seed) {
    for (uint64_t k = 1; k <= total; k += stride) {
      RunLocalCase("lossy", seed * 100000 + k, true, k, lossy[k % 3],
                   seed * 7919 + k, true, agg);
      ++runs_b;
    }
  }
  (*agg)["campaign.crash.lossy_runs"] += runs_b;
  totals->runs_b += runs_b;

  // Phase D: the ablation.  A journal-free volume under the lossy cuts must
  // corrupt at least once, or the consistency assertions above are vacuous.
  CaseResult ablation_probe =
      RunLocalCase("ablation-probe", 0, /*journaled=*/false, 0,
                   DiskHw::CutPolicy::kDropAll, 0, true, agg);
  uint64_t detected = 0;
  uint64_t ablation_runs = 0;
  for (uint64_t k = 1; k <= ablation_probe.total_writes; k += stride) {
    CaseResult r =
        RunLocalCase("ablation", k, false, k, lossy[k % 2],  // subset / tear
                     2000 + seed_base * 4099 + k, /*expect_consistent=*/false,
                     agg);
    ++ablation_runs;
    if (r.cut_fired && (!r.consistent || !r.state_valid)) {
      ++detected;
    }
  }
  (*agg)["campaign.ablation.runs"] += ablation_runs;
  (*agg)["campaign.ablation.detected"] += detected;
  totals->ablation_runs += ablation_runs;
  totals->detected += detected;
}

}  // namespace

int main(int argc, char** argv) {
  // --seed-base shifts the whole seeded portion of the sweep (lossy, tcp,
  // ablation) onto disjoint RNG streams, so a second CI job adds coverage
  // instead of repeating the first.  --stack mounts the filesystem on a
  // blkio layer composition (bottom-up spec, e.g. "stripe,checksum,cache");
  // "matrix" sweeps the local phases over every permutation of the three
  // layers, proving the campaign passes unchanged over any composition.
  uint64_t seeds = 2;
  uint64_t seed_base = 0;
  uint64_t stride = 1;
  const char* json_path = nullptr;
  const char* stack_arg = "";
  if (!bench::ParseFlags(argc, argv,
                         {{"--seeds", &seeds}, {"--seed-base", &seed_base},
                          {"--stride", &stride}, {"--json", &json_path},
                          {"--stack", &stack_arg}})) {
    return 2;
  }
  if (stride == 0) {
    stride = 1;
  }
  std::vector<std::string> stacks = {stack_arg};
  if (stacks[0] == "matrix") {
    stacks.assign(std::begin(bench::kStackMatrix),
                  std::end(bench::kStackMatrix));
  }

  Aggregate agg;
  SweepTotals totals;
  for (const std::string& stack : stacks) {
    g_stack = stack;
    RunLocalPhases(seeds, seed_base, stride, &agg, &totals);
  }
  g_stack.clear();
  uint64_t runs_a = totals.runs_a;
  uint64_t runs_b = totals.runs_b;
  uint64_t ablation_runs = totals.ablation_runs;
  uint64_t detected = totals.detected;

  // Phase C: TCP-fed stream, cut at seeded indices under each lossy policy
  // (plain mount: the stack is orthogonal to how the bytes arrive).
  const DiskHw::CutPolicy lossy[] = {DiskHw::CutPolicy::kDropSubset,
                                     DiskHw::CutPolicy::kReorder,
                                     DiskHw::CutPolicy::kTear};
  uint64_t tcp_runs = 0;
  for (uint64_t seed = seed_base + 1; seed <= seed_base + seeds; ++seed) {
    for (int p = 0; p < 3; ++p) {
      // Arm index folded into [20, 116]: the stream issues well over that
      // many durable writes, so every seeded case actually cuts mid-stream.
      RunTcpCase(seed * 10 + p, 20 + (seed * 37 + p * 11) % 97, lossy[p], seed,
                 &agg);
      ++tcp_runs;
    }
  }
  agg["campaign.tcp.runs"] += tcp_runs;

  int per_run = g_failures;
  int missing = CheckAggregate(agg);
  g_failures += missing;

  std::printf("\ncrash campaign: %llu exhaustive + %llu lossy + %llu tcp + "
              "%llu ablation runs, %llu ablation corruptions detected, "
              "%d failures\n",
              static_cast<unsigned long long>(runs_a),
              static_cast<unsigned long long>(runs_b),
              static_cast<unsigned long long>(tcp_runs),
              static_cast<unsigned long long>(ablation_runs),
              static_cast<unsigned long long>(detected), g_failures);

  bench::Report report("crash_campaign", json_path);
  report.Check("runs", per_run == 0, "%d failed runs", per_run);
  report.Check("checklist", missing == 0,
               "%d durability classes without evidence", missing);
  report.json.Set("seeds", seeds)
      .Set("stride", stride)
      .Set("durable_writes_per_run", totals.durable_writes)
      .Set("stack_sweeps", stacks.size())
      .Set("failures", g_failures)
      .Set("counters", bench::Json::Object(agg));
  return report.Finish();
}
