// kitbench command line:
//
//   kitbench --workload <http_mixed|ttcp_rtcp|crash_sweep> --seed <n>
//            --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs an untraced and a traced world over the same epochs, refuses to
// report unless their simulated results and kit counters agree exactly,
// and reports the per-layer metrics.  The last stdout line is the JSON
// result; the lines before it record the environment and sample counts.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace kitbench {
namespace {

constexpr int kSetups = 7;  // set-up repeats; setup_s is their median

// Host-speed calibration.  The host is shared: over a run its speed drifts
// by up to a third (other tenants), which would swamp any change in our own
// code.  So every ~100 ms of measured epochs is followed by a fixed,
// kit-independent loop (allocation, a map of strings, memcpy), and the
// window's throughput is scaled by how long that loop took against its
// nominal time on an undisturbed 4-core Xeon of the reference host.
constexpr uint64_t kWindowNs = 100 * 1000 * 1000;
constexpr double kNominalCalibrationNs = 8e6;

uint64_t CalibrationNs() {
  static volatile uint64_t sink = 0;
  uint64_t t0 = HostNowNs();
  std::map<uint64_t, std::string> m;
  std::vector<char> a(1 << 20, 1), b(1 << 20);
  uint64_t x = 1;
  for (uint64_t i = 0; i < 20000; ++i) {
    x = Mix(x, i);
    m[x % 50000] = std::to_string(x);
  }
  for (size_t r = 0; r < 8; ++r) {
    std::memcpy(b.data(), a.data(), a.size());
    a[r] = b[r + 1];
  }
  for (const auto& [k, v] : m) {
    sink = sink + k + v.size();
  }
  return HostNowNs() - t0;
}

struct Phase {
  std::vector<Epoch> epochs;
  std::vector<double> rates;  // calibrated ops per host second, per window
  uint64_t window_ops = 0, window_ns = 0;
  uint64_t host_ns = 0;
  Usage usage;  // deltas over the phase
  uint64_t ops = 0, attempted = 0, failed = 0;
};

// Runs one epoch of `w` into `p`, accounting its host time and usage.
void Step(Workload* w, uint64_t k, Phase* p) {
  Usage u0 = ReadUsage();
  uint64_t t0 = HostNowNs();
  p->epochs.push_back(w->RunEpoch(k));
  uint64_t host_ns = HostNowNs() - t0;
  p->host_ns += host_ns;
  p->window_ops += p->epochs.back().ops;
  p->window_ns += host_ns;
  Usage u1 = ReadUsage();
  p->usage.user_ns += u1.user_ns - u0.user_ns;
  p->usage.sys_ns += u1.sys_ns - u0.sys_ns;
  p->usage.minor_faults += u1.minor_faults - u0.minor_faults;
  const Epoch& e = p->epochs.back();
  p->ops += e.ops;
  p->attempted += e.attempted;
  p->failed += e.failed;
}

// Runs epochs 0, 1, ... on every workload in turn until `seconds` of host
// time passed and at least `min_epochs` ran.  Alternating keeps slow drift
// of the host out of the comparison between them.
std::vector<Phase> Measure(const std::vector<Workload*>& ws, double seconds,
                           uint64_t min_epochs) {
  std::vector<Phase> phases(ws.size());
  uint64_t t0 = HostNowNs();
  for (uint64_t k = 0; k < min_epochs || HostNowNs() - t0 < seconds * 1e9; ++k) {
    for (size_t i = 0; i < ws.size(); ++i) {
      Step(ws[i], k, &phases[i]);
    }
    bool last = k + 1 >= min_epochs && HostNowNs() - t0 >= seconds * 1e9;
    if (phases[0].window_ns >= kWindowNs || last) {
      double scale = CalibrationNs() / kNominalCalibrationNs;
      for (Phase& p : phases) {
        p.rates.push_back(p.window_ops / (p.window_ns / 1e9) * scale);
        p.window_ops = p.window_ns = 0;
      }
    }
  }
  return phases;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].first.c_str(), metrics_[i].second.first,
                  metrics_[i].second.second);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics_;
};

// Simulated metrics over epochs 1..sim_epochs.  Epoch 0 fills the caches
// the set-up left cold, a cost users pay once, not per request.
void AddSimMetrics(const Phase& p, uint64_t sim_epochs, Report* r) {
  std::vector<uint64_t> lat;
  uint64_t ops = 0, sim_ns = 0, bytes = 0, bytes_ns = 0;
  for (uint64_t k = 1; k <= sim_epochs && k < p.epochs.size(); ++k) {
    const Epoch& e = p.epochs[k];
    lat.insert(lat.end(), e.lat_ns.begin(), e.lat_ns.end());
    ops += e.ops;
    sim_ns += e.sim_ns;
    bytes += e.payload_bytes;
    bytes_ns += e.payload_sim_ns;
  }
  std::printf("# sim metrics over epochs 1..%llu: %zu latency samples, %llu ops\n",
              static_cast<unsigned long long>(sim_epochs), lat.size(),
              static_cast<unsigned long long>(ops));
  r->Add("sim_p50_us", Percentile(lat, 0.50) / 1e3, "us");
  r->Add("sim_p99_us", Percentile(lat, 0.99) / 1e3, "us");
  r->Add("sim_rps", Ratio(static_cast<double>(ops), sim_ns / 1e9), "1/s");
  r->Add("sim_mbps", Ratio(bytes * 8 / 1e6, bytes_ns / 1e9), "Mbit/s");
}

struct Totals {
  uint64_t events = 0, tx_bytes = 0, fs_user_bytes = 0;
  Counters counters;
};

Totals Sum(const Phase& p) {
  Totals t;
  for (const Epoch& e : p.epochs) {
    t.events += e.events;
    t.tx_bytes += e.tx_payload_bytes;
    t.fs_user_bytes += e.fs_user_bytes;
    for (const auto& [name, value] : e.counters) {
      t.counters[name] += value;
    }
  }
  return t;
}

// Sum of `name` over the hosts whose counters show OSKit glue activity.
uint64_t GlueHostSum(const Counters& counters, const std::string& name) {
  uint64_t total = 0;
  for (const auto& [key, value] : counters) {
    size_t slash = key.find('/');
    if (slash == std::string::npos || key.compare(slash + 1, std::string::npos, name) != 0) {
      continue;
    }
    std::string host = key.substr(0, slash + 1);
    auto it = counters.lower_bound(host + "glue.");
    if (it != counters.end() && it->first.rfind(host + "glue.", 0) == 0) {
      total += value;
    }
  }
  return total;
}

void AddLayerMetrics(const Phase& untraced, const Phase& traced, const Probe& probe,
                     Report* r) {
  Totals t = Sum(traced);
  const Counters& c = t.counters;
  double ops = static_cast<double>(traced.ops);
  auto busy_per_call = [&](Layer l) {
    const LayerStats& s = probe.stats(l);
    return Ratio(static_cast<double>(s.busy_ns), static_cast<double>(s.calls - s.blocked));
  };
  uint64_t busy_total = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    busy_total += probe.stats(static_cast<Layer>(l)).busy_ns;
  }
  const LayerStats& net = probe.stats(Layer::kNet);
  const LayerStats& fs = probe.stats(Layer::kFs);
  const LayerStats& dev = probe.stats(Layer::kDev);
  const LayerStats& vm = probe.stats(Layer::kVm);
  const LayerStats& parse = probe.stats(Layer::kHttpParse);

  r->Add("machine.events", static_cast<double>(t.events), "count");
  r->Add("machine.host_ns_per_event", Ratio(traced.host_ns, t.events), "ns");
  r->Add("machine.residual_host_ns_per_op",
         Ratio(static_cast<double>(traced.host_ns) - static_cast<double>(busy_total), ops),
         "ns");
  r->Add("machine.sys_frac",
         Ratio(traced.usage.sys_ns, traced.usage.sys_ns + traced.usage.user_ns), "ratio");
  r->Add("machine.minor_faults_per_op", Ratio(traced.usage.minor_faults, ops), "count");
  r->Add("machine.world_build_us", Ratio(probe.world_build_ns / 1e3, probe.world_builds),
         "us");

  r->Add("net.busy_ns_per_call", busy_per_call(Layer::kNet), "ns");
  r->Add("net.wait_sim_us_per_op", Ratio(net.wait_sim_ns / 1e3, ops), "us");
  r->Add("net.would_block_frac", Ratio(probe.would_block, probe.nonblocking_calls), "ratio");
  r->Add("net.tcp_segments_per_op", Ratio(CounterSum(c, "net.tcp.out"), ops), "count");
  r->Add("net.retransmits_per_op", Ratio(CounterSum(c, "net.tcp.retransmits"), ops),
         "count");

  r->Add("dev.linux.tx_copied_bytes_per_byte",
         Ratio(CounterSum(c, "glue.send.copied_bytes"), t.tx_bytes), "ratio");
  r->Add("dev.linux.irqs_per_frame",
         Ratio(GlueHostSum(c, "nic.rx.coalesce.irqs"), GlueHostSum(c, "nic.rx.coalesce.frames")),
         "ratio");
  r->Add("dev.linux.blk_reads_per_op", Ratio(probe.blk_reads, ops), "count");
  r->Add("dev.linux.blk_writes_per_op", Ratio(probe.blk_writes, ops), "count");
  r->Add("dev.linux.blk_flushes_per_op", Ratio(probe.blk_flushes, ops), "count");
  r->Add("dev.linux.blk_wait_sim_us_per_call", Ratio(dev.wait_sim_ns / 1e3, dev.calls), "us");
  r->Add("dev.linux.blk_busy_ns_per_call", busy_per_call(Layer::kDev), "ns");
  r->Add("dev.linux.ring_merges_per_sqe",
         Ratio(CounterSum(c, "glue.ide.ring.merges"), CounterSum(c, "glue.ide.ring.sqes")),
         "ratio");

  r->Add("aio.sqes_per_submit", Ratio(probe.ring_sqes, probe.ring_submits), "count");
  r->Add("aio.checksum_busy_ns_per_call", busy_per_call(Layer::kAio), "ns");

  double hits = CounterSum(c, "fs.cache.hits");
  double misses = CounterSum(c, "fs.cache.misses");
  r->Add("fs.busy_ns_per_call", busy_per_call(Layer::kFs), "ns");
  r->Add("fs.blocked_frac", Ratio(fs.blocked, fs.calls), "ratio");
  r->Add("fs.wait_sim_us_per_call", Ratio(fs.wait_sim_ns / 1e3, fs.calls), "us");
  r->Add("fs.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Add("fs.journal_bytes_per_user_byte",
         Ratio(CounterSum(c, "fs.journal.blocks_logged") * 4096.0, t.fs_user_bytes), "ratio");
  r->Add("fs.mount_host_us", Ratio(probe.mount_ns / 1e3, probe.mounts), "us");
  r->Add("fs.fsck_host_us", Ratio(probe.fsck_ns / 1e3, probe.fscks), "us");
  r->Add("fs.sendfile_frac",
         Ratio(CounterSum(c, "http.sendfile_responses"), CounterSum(c, "http.responses")),
         "ratio");

  r->Add("http.server_busy_ns_per_req",
         Ratio(probe.server_loop_ns, CounterSum(c, "http.requests")), "ns");
  r->Add("http.harvest_batch", Ratio(probe.server_events, probe.server_waits), "count");
  r->Add("http.parse_ns_per_kb", Ratio(parse.busy_ns, probe.parse_bytes / 1024.0), "ns");

  r->Add("vm.calls", static_cast<double>(vm.calls), "count");
  r->Add("vm.run_ns_per_call", busy_per_call(Layer::kVm), "ns");

  double u_rate = Median(untraced.rates);
  double t_rate = Median(traced.rates);
  r->Add("trace_overhead", u_rate > 0 ? 1 - t_rate / u_rate : 0, "ratio");
  r->Add("error_rate", Ratio(traced.failed + untraced.failed,
                             traced.attempted + untraced.attempted), "ratio");
}

int Run(const std::string& workload, uint64_t seed, double seconds, int trace,
        uint64_t process_start) {
  if (MakeWorkload(workload) == nullptr) {
    std::fprintf(stderr, "kitbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::printf("# kitbench env: build_type=%s compiler=%s nproc=%ld cpu=%s\n",
              KITBENCH_BUILD_TYPE, KITBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
              CpuModel().c_str());
  Report report;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;

  if (trace == 0) {
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < kSetups; ++i) {
      w.reset();
      uint64_t t0 = i == 0 ? process_start : HostNowNs();
      w = MakeWorkload(workload);
      w->Setup(seed, nullptr);
      setups.push_back((HostNowNs() - t0) / 1e9);
    }
    Phase p = std::move(Measure({w.get()}, seconds, w->sim_epochs() + 1)[0]);
    attempted = p.attempted;
    failed = p.failed;
    correct = failed == 0;
    std::printf("# measured %zu epochs, %llu ops in %.3f s (%.1f ops/s uncalibrated, %zu "
                "windows); set-ups:",
                p.epochs.size(), static_cast<unsigned long long>(p.ops), p.host_ns / 1e9,
                p.ops / (p.host_ns / 1e9), p.rates.size());
    for (double s : setups) {
      std::printf(" %.4f", s);
    }
    std::printf(" s\n");
    report.Add("setup_s", Median(setups), "s");
    report.Add("host_ops_per_s", Median(p.rates), "1/s");
    report.Add("peak_rss_mb", ReadUsage().max_rss_kb / 1024.0, "MB");
    AddSimMetrics(p, w->sim_epochs(), &report);
  } else {
    // An untraced and a traced world run the same epochs in turn.
    auto plain = MakeWorkload(workload);
    plain->Setup(seed, nullptr);
    Probe probe;
    auto timed = MakeWorkload(workload);
    timed->Setup(seed, &probe);
    probe.Reset();
    std::vector<Phase> phases =
        Measure({plain.get(), timed.get()}, seconds, plain->sim_epochs() + 1);
    const Phase& untraced = phases[0];
    const Phase& traced = phases[1];
    for (size_t k = 0; k < untraced.epochs.size(); ++k) {
      std::string diff = untraced.epochs[k].Mismatch(traced.epochs[k]);
      if (!diff.empty()) {
        std::printf("# traced run differs from untraced at epoch %zu: %s\n", k, diff.c_str());
        correct = false;
        break;
      }
    }
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
    correct = correct && failed == 0;
    std::printf("# %zu epochs untraced in %.3f s, traced in %.3f s, %llu ops each\n",
                untraced.epochs.size(), untraced.host_ns / 1e9, traced.host_ns / 1e9,
                static_cast<unsigned long long>(traced.ops));
    AddLayerMetrics(untraced, traced, probe, &report);
  }
  std::printf("# peak rss %.1f MB\n", ReadUsage().max_rss_kb / 1024.0);
  std::printf("# error_rate %.6g (%llu failed of %llu attempted)\n",
              Ratio(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  report.Print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace kitbench

int main(int argc, char** argv) {
  uint64_t process_start = kitbench::HostNowNs();
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "kitbench: refusing to report from an unoptimised build\n");
  return 3;
#endif
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "kitbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || workload.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: kitbench --workload <http_mixed|ttcp_rtcp|crash_sweep> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return kitbench::Run(workload, seed, seconds, trace, process_start);
}
