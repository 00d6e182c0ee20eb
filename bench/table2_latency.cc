// Table 2 reproduction: rtcp TCP 1-byte round-trip latency for the paper's
// three configurations, plus the coalesced+polled-RX OSKit as an honest
// ablation (mitigation's holdoff dominates ping-pong RTT — see the note the
// harness prints).
//
// Paper finding: "the FreeBSD versus OSKit results indicate that the OSKit
// imposes significant overhead ... largely attributable to the additional
// glue code within the OSKit components: the price we pay for modularity
// and separability" (the paper declines to interpret the Linux number).
//
// Here both endpoints run the measured configuration, the wire is
// infinitely fast, and the host-CPU time per round trip isolates exactly
// that software overhead.  A wire-limited column shows the simulated RTT
// with a 100 Mbps / 5 us wire for scale.

#include <algorithm>
#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/ttcp.h"
#include "src/trace/trace.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

RtcpResult RunOne(NetConfig config, bool wire_limited, uint64_t round_trips,
                  trace::CounterSnapshot* out_client_counters = nullptr) {
  EthernetWire::Config wire;
  if (wire_limited) {
    wire.bits_per_second = 100 * 1000 * 1000;
    wire.propagation_ns = 5 * kNsPerUs;
  }
  World world(wire);
  world.AddHost("server", config);
  world.AddHost("client", config);
  RtcpResult result = RunRtcp(world, round_trips);
  if (out_client_counters != nullptr) {
    *out_client_counters = world.host(1).trace.registry.Snapshot();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t round_trips = 20000;
  if (!bench::ParseFlags(argc, argv, {{"round_trips", &round_trips}})) {
    return 2;
  }

  const struct {
    const char* name;
    NetConfig config;
  } kConfigs[] = {
      {"Linux 2.0.29 (native skbuff stack)", NetConfig::kNativeLinux},
      {"FreeBSD 2.1.5 (native mbuf stack)", NetConfig::kNativeBsd},
      {"OSKit (FreeBSD stack + Linux driver)", NetConfig::kOskit},
      {"OSKit, coalesced+polled RX", NetConfig::kOskitNapi},
  };
  constexpr int kNumConfigs = 4;

  // The software path is wall-clock time and at the mercy of host noise, so
  // it runs in rounds over all four configurations, FreeBSD and OSKit
  // adjacent in each; a row prints its median, and the shape check takes
  // the median of the rounds' OSKit/FreeBSD ratios, so a stall hits one
  // round only.
  constexpr int kRounds = 5;
  double round_us[kNumConfigs][kRounds];
  double ratios[kRounds];
  trace::CounterSnapshot client_counters[kNumConfigs];
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kNumConfigs; ++i) {
      RtcpResult sw = RunOne(kConfigs[i].config, /*wire_limited=*/false, round_trips,
                             r == 0 ? &client_counters[i] : nullptr);
      round_us[i][r] = sw.UsecPerRoundTripWall();
    }
    ratios[r] = round_us[2][r] / round_us[1][r];
  }

  std::printf("Table 2: TCP one-byte round-trip time measured with rtcp "
              "(%llu round trips per cell)\n\n",
              static_cast<unsigned long long>(round_trips));
  std::printf("%-38s | sw-path us/rt (wall, median of %d) | %18s\n",
              "configuration", kRounds, "wire-model us/rt (sim)");
  std::printf("---------------------------------------+-----------------------------"
              "------+--------------------\n");
  double us[kNumConfigs];
  for (int i = 0; i < kNumConfigs; ++i) {
    std::sort(round_us[i], round_us[i] + kRounds);
    us[i] = round_us[i][kRounds / 2];
    RtcpResult wire = RunOne(kConfigs[i].config, /*wire_limited=*/true,
                             round_trips / 10);
    std::printf("%-38s | %33.2f | %18.1f\n", kConfigs[i].name, us[i],
                wire.UsecPerRoundTripSim());
  }

  std::sort(ratios, ratios + kRounds);
  double overhead = ratios[kRounds / 2];
  bench::Report report("table2_latency", nullptr);
  std::printf("\nShape check:\n");
  report.Check("overhead", overhead > 1.02,
               "rtt(OSKit)/rtt(FreeBSD) = %.2f, median of %d rounds  "
               "(paper: > 1 — 'the OSKit imposes significant overhead' from "
               "glue code)",
               overhead, kRounds);
  std::printf("The delta is the COM boundary crossings, bufio conversions and "
              "emulated-process glue per packet (the client counter snapshots "
              "below).\n");
  std::printf("Note: the coalesced+polled row pays the 1 ms holdoff per "
              "1-byte exchange (%.1fx the per-frame OSKit RTT) — interrupt "
              "mitigation trades ping-pong latency for throughput-side IRQ "
              "load; no shape check, the cost is the point.\n",
              us[3] / us[2]);

  // Client-side counter snapshots from each configuration's trace registry:
  // the per-packet mechanism behind the latency rows.
  std::printf("\nClient counter snapshots (trace registry, first software-path "
              "round):\n");
  for (int i = 0; i < kNumConfigs; ++i) {
    std::printf("  %s\n", kConfigs[i].name);
    for (const auto& [name, value] : client_counters[i]) {
      if (value != 0 &&
          (name.rfind("glue.send.", 0) == 0 || name == "net.tcp.out" ||
           name == "linux.tcp.out" || name == "net.sleep.sleeps" ||
           name == "machine.irq.dispatched")) {
        std::printf("    %-32s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  return report.Finish();
}
