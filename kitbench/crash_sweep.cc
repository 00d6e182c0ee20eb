// crash_sweep: many short one-machine worlds, one crash case each.
//
// A case builds a Machine with an IDE disk (write cache on), formats a
// journaled FFS, mounts it over the aio stack (sync ring adapter over the
// checksum layer over the IDE glue), runs a fixed create/write/mkdir/
// unlink/rename/rmdir/Sync mix, and loses power at durable-write index i
// under one of the four cut policies.  The post-crash image is then
// replayed, fsck'd and remounted host-side, and the namespace must equal the
// operation-boundary model at some boundary at or after the last
// acknowledged Sync.  An operation is one recovered and checked case.
//
// Every epoch draws its own seeded mix (file counts and sizes), runs it
// uncut once to count its durable writes, then cuts four cases spread
// across that sweep.  The simulated latency sample is per mix operation,
// from its start until the Sync that made it durable returned: single FS
// calls on the simulated disk take one of a handful of exact values (zero,
// one or two block writes), so their percentiles would not say much.
//
// FS writes, the journal, recovery, the aio stack and world construction
// dominate here, and there is no network.

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "src/aio/stack.h"
#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/fs/fsck.h"
#include "src/kern/kernel.h"
#include "src/machine/machine.h"

namespace kitbench {
namespace {

using namespace oskit;

constexpr uint64_t kDiskSectors = 4 * 1024 * 1024 / 512;
constexpr uint64_t kCasesPerEpoch = 4;
const char* const kDirMarker = "\x01:dir";

using Model = std::map<std::string, std::string>;

// The seeded op mix: how many files each round creates and how big they are.
struct Plan {
  std::vector<std::vector<size_t>> rounds;  // file sizes per round
  uint64_t salt = 0;
};

Plan MakePlan(uint64_t salt) {
  Rng rng(salt);
  Plan plan;
  plan.salt = salt;
  for (int r = 0; r < 6; ++r) {
    std::vector<size_t> sizes(rng.Range(3, 4));
    for (size_t& s : sizes) {
      s = rng.Range(600, 5000);
    }
    plan.rounds.push_back(sizes);
  }
  return plan;
}

struct Trace {
  std::vector<Model> snapshots;  // model after op 0, 1, ...
  size_t last_acked = 0;         // snapshot covered by the last ok Sync
  bool mount_ok = false;
  bool finished = false;         // ran to completion and unmounted (no cut)
  uint64_t writes_at_arm = 0;
  uint64_t user_bytes = 0;
  std::vector<uint64_t> lat_ns;  // op start -> covering Sync returned kOk
  trace::CounterSnapshot counters;
};

// Runs the mix; stops at the first failure (the cut fired).
void RunOps(Simulation* sim, DiskHw* disk, FileSystem* fs, Dir* root,
            const Plan& plan, Probe* probe, Trace* t) {
  Model model;
  std::vector<SimTime> undurable;  // start times of ops since the last Sync
  auto snap = [&] { t->snapshots.push_back(model); };
  // Issues one FS call; notes the start of each mix operation.
  auto call = [&](auto&& fn, bool starts_op = true) {
    if (starts_op) {
      undurable.push_back(sim->clock().Now());
    }
    return Ok(fn());
  };
  snap();
  for (size_t round = 0; round < plan.rounds.size(); ++round) {
    std::string r = std::to_string(round);
    for (size_t i = 0; i < plan.rounds[round].size(); ++i) {
      std::string name = "r" + r + "f" + std::to_string(i);
      std::string content =
          PatternString(Mix(plan.salt, round * 16 + i), plan.rounds[round][i]);
      ComPtr<File> f;
      if (!call([&] { return root->Create(name.c_str(), 0644, f.Receive()); })) {
        return;
      }
      size_t actual = 0;
      if (!call([&] { return f->Write(content.data(), 0, content.size(), &actual); },
                /*starts_op=*/false) ||
          actual != content.size()) {
        return;
      }
      if (!disk->powered_off()) {
        t->user_bytes += content.size();
      }
      model[name] = content;
      snap();
    }
    std::string dir = "d" + r;
    if (!call([&] { return root->Mkdir(dir.c_str(), 0755); })) {
      return;
    }
    model[dir] = kDirMarker;
    snap();
    if (round >= 1) {
      std::string prev = std::to_string(round - 1);
      std::string victim = "r" + prev + "f1";
      if (!call([&] { return root->Unlink(victim.c_str()); })) {
        return;
      }
      model.erase(victim);
      snap();
      std::string old_name = "r" + prev + "f0";
      std::string new_name = "m" + r;
      if (!call([&] { return root->Rename(old_name.c_str(), root, new_name.c_str()); })) {
        return;
      }
      model[new_name] = model[old_name];
      model.erase(old_name);
      snap();
    }
    if (round >= 2) {
      std::string dead = "d" + std::to_string(round - 2);
      if (!call([&] { return root->Rmdir(dead.c_str()); })) {
        return;
      }
      model.erase(dead);
      snap();
    }
    if (!call([&] { return Timed(probe, Layer::kFs, [&] { return fs->Sync(); }); },
              /*starts_op=*/false)) {
      return;
    }
    t->last_acked = t->snapshots.size() - 1;
    if (!disk->powered_off()) {
      for (SimTime start : undurable) {
        t->lat_ns.push_back(sim->clock().Now() - start);
      }
    }
    undurable.clear();
  }
}

// Reads the mounted root back into a Model.
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
      FileStat stat;
      if (!Ok(root->Lookup(name.c_str(), f.Receive())) || !Ok(f->GetStat(&stat))) {
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

// The aio composition the filesystem mounts on: ring adapter over the
// checksum layer over `device`.  The same composition is rebuilt over the
// post-crash image for recovery, as a reboot would.
ComPtr<BlkIo> AioStack(ComPtr<BlkIo> device, trace::TraceEnv* tenv) {
  auto sums = aio::ChecksumBlkIo::Create(device.get(), tenv);
  auto ring = aio::SyncRingAdapter::Wrap(ComPtr<BlkIo>::FromQuery(sums.get()).get(), tenv);
  return ComPtr<BlkIo>::FromQuery(ring.get());
}

class CrashSweep final : public Workload {
 public:
  void Setup(uint64_t seed, Probe* probe) override {
    seed_ = seed;
    probe_ = probe;
    // Set-up is the first mix's uncut probe run.
    Epoch scratch;
    OSKIT_ASSERT_MSG(RunUncut(0, &scratch) > 0, "crash_sweep: uncut probe run failed");
  }

  Epoch RunEpoch(uint64_t index) override {
    static const DiskHw::CutPolicy kPolicies[] = {
        DiskHw::CutPolicy::kDropAll, DiskHw::CutPolicy::kDropSubset,
        DiskHw::CutPolicy::kReorder, DiskHw::CutPolicy::kTear};
    Epoch e;
    Epoch uncut;
    uint64_t total = RunUncut(index, &uncut);
    e.events = uncut.events;
    e.counters = uncut.counters;
    Rng rng(Mix(seed_ ^ 0xc07, index));
    for (uint64_t c = 0; c < kCasesPerEpoch; ++c) {
      uint64_t arm_at = 1 + (c * total + rng.Below(total)) / kCasesPerEpoch;
      DiskHw::CutPolicy policy = kPolicies[(seed_ + index * kCasesPerEpoch + c) % 4];
      ++e.attempted;
      if (total != 0 && RunCase(arm_at, policy, Mix(seed_, index * 64 + c), &e)) {
        ++e.ops;
      } else {
        ++e.failed;
      }
    }
    e.payload_bytes = e.fs_user_bytes;
    e.payload_sim_ns = e.sim_ns;
    return e;
  }

  uint64_t sim_epochs() const override { return 32; }

 private:
  // Draws epoch `index`'s mix and runs it uncut; returns its durable-write
  // count (0 when the uncut run failed).  Its samples are not measured.
  uint64_t RunUncut(uint64_t index, Epoch* e) {
    plan_ = MakePlan(Mix(seed_, index));
    if (!RunCase(0, DiskHw::CutPolicy::kDropAll, 0, e)) {
      return 0;
    }
    return total_writes_;
  }

  // arm_at == 0 runs the mix uncut.  Returns true when the case checks out.
  bool RunCase(uint64_t arm_at, DiskHw::CutPolicy policy, uint64_t cut_seed, Epoch* e) {
    uint64_t build0 = HostNowNs();
    trace::TraceEnv tenv;
    Simulation sim;
    Machine machine(&sim, Machine::Config{});
    DiskHw* disk = machine.AddDisk(kDiskSectors);
    KernelEnv kernel(&machine, MultiBootInfo{}, KernelEnv::SleepMode::kFiber, &tenv,
                     nullptr);
    machine.cpu().EnableInterrupts();
    FdevEnv fdev = DefaultFdevEnv(&kernel);
    DeviceRegistry registry;
    linuxdev::InitLinuxIde(fdev, &machine, &registry);
    auto device = registry.LookupByName("hda");
    ComPtr<BlkIo> dev = ComPtr<BlkIo>::FromQuery(device.get());
    if (probe_ != nullptr) {
      probe_->set_sim(&sim);
      probe_->world_build_ns += HostNowNs() - build0;
      ++probe_->world_builds;
      dev = WrapBlkIo(dev, Layer::kDev, probe_);
    }
    ComPtr<BlkIo> top = AioStack(dev, &tenv);
    if (probe_ != nullptr) {
      top = WrapBlkIo(top, Layer::kAio, probe_);
    }

    Trace t;
    sim.Spawn("crash/workload", [&] {
      if (!Ok(fs::Mkfs(top.get()))) {
        return;
      }
      // The formatted image is durable; the mix writes through the cache.
      disk->EnableWriteCache(true);
      fs::MountOptions mount;
      mount.trace = &tenv;
      ComPtr<FileSystem> fs;
      if (!Ok(MountTimed(top.get(), mount, &fs, probe_))) {
        return;
      }
      t.mount_ok = true;
      ComPtr<Dir> root;
      fs->GetRoot(root.Receive());
      if (probe_ != nullptr) {
        root = WrapDir(root, probe_);
      }
      t.writes_at_arm = disk->writes_completed();
      if (arm_at != 0) {
        disk->ArmPowerCut(arm_at, policy, cut_seed);
      }
      RunOps(&sim, disk, fs.get(), root.get(), plan_, probe_, &t);
      t.counters = tenv.registry.Snapshot();
      root.Reset();
      if (!disk->powered_off() && Ok(fs->Unmount())) {
        t.finished = true;
      }
    });
    bool ran = sim.Run(600 * kNsPerSec) == Simulation::RunResult::kAllDone;
    e->events += sim.clock().events_run();
    e->sim_ns += sim.clock().Now();
    e->lat_ns.insert(e->lat_ns.end(), t.lat_ns.begin(), t.lat_ns.end());
    e->fs_user_bytes += t.user_bytes;
    AddCounterDelta({}, t.counters, "case/", &e->counters);
    if (!ran || !t.mount_ok) {
      return false;
    }
    if (arm_at == 0) {
      total_writes_ = disk->writes_completed() - t.writes_at_arm;
      return t.finished;
    }
    if (!disk->powered_off()) {
      return false;  // every index up to the probe's count must cut
    }

    // Host-side recovery of the post-crash image: replay + fsck, remount,
    // and compare the namespace with the model.
    auto image = MemBlkIo::CreateFrom(disk->raw(), disk->raw_size(), 512);
    ComPtr<BlkIo> post = AioStack(ComPtr<BlkIo>::FromQuery(image.get()), &tenv);
    fs::FsckOptions fsck_options;
    fsck_options.replay_journal = true;
    uint64_t fsck0 = HostNowNs();
    fs::FsckReport report = fs::Fsck(post.get(), fsck_options);
    if (probe_ != nullptr) {
      probe_->fsck_ns += HostNowNs() - fsck0;
      ++probe_->fscks;
    }
    if (!report.superblock_valid || !report.problems.empty()) {
      return false;
    }
    fs::MountOptions mount;
    mount.trace = &tenv;
    ComPtr<FileSystem> fs;
    if (!Ok(MountTimed(post.get(), mount, &fs, probe_))) {
      return false;
    }
    ComPtr<Dir> root;
    fs->GetRoot(root.Receive());
    Model observed;
    bool valid = false;
    if (ObserveState(root.get(), &observed)) {
      for (size_t j = t.last_acked; j < t.snapshots.size(); ++j) {
        if (observed == t.snapshots[j]) {
          valid = true;
          break;
        }
      }
    }
    trace::CounterSnapshot recovered;
    tenv.registry.ForEach(
        [&](const char* name, uint64_t value, bool) { recovered[name] = value; },
        "fs.");
    AddCounterDelta({}, recovered, "recovery/", &e->counters);
    root.Reset();
    fs->Unmount();
    return valid;
  }

  uint64_t seed_ = 0;
  Probe* probe_ = nullptr;
  Plan plan_;
  uint64_t total_writes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCrashSweep() { return std::make_unique<CrashSweep>(); }

}  // namespace kitbench
