// kitbench: the repository benchmark.  It drives the kit from outside — it
// links the libraries, builds worlds through src/testbed, and calls the COM
// interfaces — and reports host cost (what our own code costs on the host
// CPU) next to the simulated-clock results.
//
// A run builds a workload's world (set-up), then runs deterministic epochs
// until its time is up.  Every epoch is a pure function of (seed, epoch
// index), so two worlds built from one seed produce the same simulated
// results, event counts and kit counters epoch by epoch.  The traced run
// uses that: it runs an untraced world and a traced one over the same
// epochs and refuses to report unless they agree exactly, which proves the
// timing wrappers below are transparent.

#ifndef KITBENCH_BENCH_H_
#define KITBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/com/aio.h"
#include "src/com/blkio.h"
#include "src/com/bufio.h"
#include "src/com/filesystem.h"
#include "src/com/netselector.h"
#include "src/fs/ffs.h"
#include "src/machine/simulation.h"
#include "src/trace/trace.h"

namespace kitbench {

using oskit::ComPtr;
using oskit::Error;

// ---------------------------------------------------------------------------
// Host clock and process accounting
// ---------------------------------------------------------------------------

uint64_t HostNowNs();

struct Usage {
  uint64_t user_ns = 0;
  uint64_t sys_ns = 0;
  uint64_t minor_faults = 0;
  uint64_t max_rss_kb = 0;
};
Usage ReadUsage();

// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<uint64_t> samples, double p);

// ---------------------------------------------------------------------------
// Layer probe: host and simulated time of calls across layer boundaries
// ---------------------------------------------------------------------------

enum class Layer {
  kNet,       // sockets and selectors (server selector, load generators)
  kFs,        // the Dir/File surface the server and the crash workload use
  kAio,       // the aio stack between the filesystem and the device
  kDev,       // the Linux IDE glue, reached through BlkIo
  kHttpParse, // http::ResponseParser::Feed in the load generators
  kVm,        // vm::Vm::Run inside the dynamic route
};
inline constexpr size_t kLayerCount = 6;

struct LayerStats {
  uint64_t calls = 0;
  uint64_t blocked = 0;        // calls during which the clock ran an event
  uint64_t busy_ns = 0;        // host self time of unblocked calls
  uint64_t wait_sim_ns = 0;    // simulated duration of blocked calls
};

// Times calls made at a layer boundary.  A call during which the world's
// clock ran an event is *blocked*: other fibers ran inside it, so its host
// time is not the layer's and only its simulated duration (wait) counts.
// Unblocked calls charge their host self time (minus timed calls nested in
// them) as busy.  Frames are kept per fiber, because a blocked call on one
// fiber interleaves with calls on others.
class Probe {
 public:
  Probe() = default;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // The world whose clock decides whether a call blocked.  Workloads that
  // build a world per operation rebind it each time.
  void set_sim(oskit::Simulation* sim) { sim_ = sim; }

  template <typename Fn>
  auto Time(Layer layer, Fn&& fn) -> decltype(fn()) {
    Scope scope(this, layer);
    return fn();
  }

  // Clears every statistic (the measured phase starts from zero).
  void Reset();

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<size_t>(layer)];
  }

  // Host time of outermost fs calls so far; the server-loop accounting
  // subtracts it from the intervals between selector waits.
  uint64_t fs_outer_host_ns() const { return fs_outer_host_ns_; }

  // Load-generator and selector side counts.
  uint64_t nonblocking_calls = 0;
  uint64_t would_block = 0;
  uint64_t parse_bytes = 0;
  uint64_t ring_submits = 0;
  uint64_t ring_sqes = 0;
  uint64_t blk_reads = 0;
  uint64_t blk_writes = 0;
  uint64_t blk_flushes = 0;
  // Server loop: host time from a selector Wait returning to the next Wait
  // call, minus the fs calls made in between; and events per harvest.
  uint64_t server_loop_ns = 0;
  uint64_t server_waits = 0;
  uint64_t server_events = 0;
  // Set-up steps timed whole (host ns, count).
  uint64_t world_build_ns = 0, world_builds = 0;
  uint64_t mount_ns = 0, mounts = 0;
  uint64_t fsck_ns = 0, fscks = 0;

 private:
  struct Frame {
    Frame* parent;
    Layer layer;
    uint64_t child_host_ns;
  };

  class Scope {
   public:
    Scope(Probe* probe, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe* probe_;
    Frame frame_;
    const void* fiber_;
    uint64_t host0_;
    uint64_t sim0_;
    size_t events0_;
  };

  oskit::Simulation* sim_ = nullptr;
  LayerStats stats_[kLayerCount];
  std::unordered_map<const void*, Frame*> top_;  // innermost frame per fiber
  uint64_t fs_outer_host_ns_ = 0;
};

// Calls `fn` directly when `probe` is null (the untraced run).
template <typename Fn>
auto Timed(Probe* probe, Layer layer, Fn&& fn) -> decltype(fn()) {
  if (probe == nullptr) {
    return fn();
  }
  return probe->Time(layer, fn);
}

// ---------------------------------------------------------------------------
// Forwarding COM objects for the traced run.  Each grants exactly the
// interfaces its inner object grants (so the kit's Query-driven choices —
// sendfile, ring batching, barriers — are the same with and without them).
// ---------------------------------------------------------------------------

// The selector handed to http::Server.  Also accounts the server loop.
ComPtr<oskit::NetSelector> WrapSelector(ComPtr<oskit::NetSelector> inner,
                                        Probe* probe);

// A Dir (and every File/Dir reached through it).
ComPtr<oskit::Dir> WrapDir(ComPtr<oskit::Dir> inner, Probe* probe);

// A block device boundary: BlkIo plus BlkIoBarrier/BlkIoRing when granted.
ComPtr<oskit::BlkIo> WrapBlkIo(ComPtr<oskit::BlkIo> inner, Layer layer,
                               Probe* probe);

// fs::Offs::Mount, timed whole into the probe's mount statistics.
Error MountTimed(oskit::BlkIo* device, const oskit::fs::MountOptions& options,
                 ComPtr<oskit::FileSystem>* out, Probe* probe);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Kit counters by "<host>/<name>".
using Counters = std::map<std::string, uint64_t>;

// Adds `after - before` of every counter into *sum (prefixing names).
void AddCounterDelta(const oskit::trace::CounterSnapshot& before,
                     const oskit::trace::CounterSnapshot& after,
                     const std::string& prefix, Counters* sum);

// Sum of one counter across hosts.
uint64_t CounterSum(const Counters& counters, const std::string& name);

// What one epoch did.  Everything here is on the simulated side or counted
// by the kit, so it repeats exactly for a given (seed, epoch).
struct Epoch {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;                 // measured operations completed and valid
  std::vector<uint64_t> lat_ns;     // simulated latency samples
  uint64_t sim_ns = 0;              // simulated duration
  uint64_t payload_bytes = 0;       // bytes delivered or written
  uint64_t payload_sim_ns = 0;      // simulated time they took
  uint64_t events = 0;              // clock events run
  uint64_t tx_payload_bytes = 0;    // bytes the OSKit-glue hosts sent
  uint64_t fs_user_bytes = 0;       // bytes the workload wrote into files
  Counters counters;                // kit counter deltas

  // Empty when `other` matches exactly; otherwise what differs.
  std::string Mismatch(const Epoch& other) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the world and everything the first epoch needs.  `probe` is
  // null in the untraced run.
  virtual void Setup(uint64_t seed, Probe* probe) = 0;
  virtual Epoch RunEpoch(uint64_t index) = 0;
  // Epochs the simulated metrics are taken over: fixed per workload, so the
  // sim metrics do not depend on how fast the host is.
  virtual uint64_t sim_epochs() const = 0;
};

// `corrupt_file` >= 0 serves that catalog file with one bit flipped, so a
// test can show that wrong bodies count as failures.
std::unique_ptr<Workload> MakeHttpMixed(int corrupt_file = -1);
std::unique_ptr<Workload> MakeTtcpRtcp();
std::unique_ptr<Workload> MakeCrashSweep();
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Deterministic content: byte `offset` of the stream named by `salt`.
inline uint8_t PatternByte(uint64_t salt, uint64_t offset) {
  uint64_t x = (salt ^ (offset >> 6)) * 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  return static_cast<uint8_t>(x + offset * 131);
}
std::string PatternString(uint64_t salt, size_t bytes);

// Seed mixing for per-epoch / per-host streams.
uint64_t Mix(uint64_t a, uint64_t b);

}  // namespace kitbench

#endif  // KITBENCH_BENCH_H_
