// Host clock, process accounting, counters and the epoch comparison.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.h"

namespace kitbench {

uint64_t HostNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  Usage u;
  u.user_ns = ns(ru.ru_utime);
  u.sys_ns = ns(ru.ru_stime);
  u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  u.max_rss_kb = static_cast<uint64_t>(ru.ru_maxrss);
  return u;
}

double Percentile(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(samples.size()));
  if (rank >= samples.size()) {
    rank = samples.size() - 1;
  }
  return static_cast<double>(samples[rank]);
}

void AddCounterDelta(const oskit::trace::CounterSnapshot& before,
                     const oskit::trace::CounterSnapshot& after,
                     const std::string& prefix, Counters* sum) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) {
      (*sum)[prefix + name] += value - base;
    }
  }
}

uint64_t CounterSum(const Counters& counters, const std::string& name) {
  uint64_t total = 0;
  for (const auto& [key, value] : counters) {
    size_t slash = key.find('/');
    if (slash != std::string::npos && key.compare(slash + 1, std::string::npos,
                                                  name) == 0) {
      total += value;
    }
  }
  return total;
}

std::string Epoch::Mismatch(const Epoch& other) const {
  char buf[160];
  auto diff = [&](const char* what, uint64_t a, uint64_t b) {
    std::snprintf(buf, sizeof(buf), "%s %llu != %llu", what,
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    return std::string(buf);
  };
  if (attempted != other.attempted) return diff("attempted", attempted, other.attempted);
  if (failed != other.failed) return diff("failed", failed, other.failed);
  if (ops != other.ops) return diff("ops", ops, other.ops);
  if (sim_ns != other.sim_ns) return diff("sim_ns", sim_ns, other.sim_ns);
  if (events != other.events) return diff("machine.events", events, other.events);
  if (payload_bytes != other.payload_bytes) {
    return diff("payload_bytes", payload_bytes, other.payload_bytes);
  }
  if (lat_ns != other.lat_ns) {
    return diff("latency samples", lat_ns.size(), other.lat_ns.size());
  }
  if (counters != other.counters) {
    for (const auto& [name, value] : counters) {
      auto it = other.counters.find(name);
      uint64_t v = it == other.counters.end() ? 0 : it->second;
      if (v != value) {
        return diff(("counter " + name).c_str(), value, v);
      }
    }
    return "counter sets differ";
  }
  return "";
}

std::string PatternString(uint64_t salt, size_t bytes) {
  std::string out(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>(PatternByte(salt, i));
  }
  return out;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "http_mixed") return MakeHttpMixed();
  if (name == "ttcp_rtcp") return MakeTtcpRtcp();
  if (name == "crash_sweep") return MakeCrashSweep();
  return nullptr;
}

}  // namespace kitbench
