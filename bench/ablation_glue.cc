// Ablation: where does the OSKit's per-packet overhead come from?
//
// Table 2's text attributes the OSKit's extra latency to "the additional
// glue code within the OSKit components: the price we pay for modularity
// and separability".  This harness decomposes that price by toggling the
// layers one at a time on the rtcp and ttcp workloads:
//
//   A  native FreeBSD        — no COM boundary, driver eats mbuf chains
//   B  OSKit                 — COM NetIo/BufIo + conversions (zero-copy rx)
//   C  OSKit + forced rx copy — ablates the §4.7.3 zero-copy import, so
//                               BOTH directions pay a buffer copy
//
// B - A  = cost of the COM boundary + bufio conversion machinery
// C - B  = what the zero-copy receive import saves (the mechanism that
//          keeps OSKit receive bandwidth at FreeBSD levels in Table 1)

#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/ttcp.h"
#include "src/trace/trace.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

struct Variant {
  const char* name;
  NetConfig config;
  bool force_rx_copy;
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t round_trips = 20000;
  const char* json_path = nullptr;
  if (!bench::ParseFlags(argc, argv,
                         {{"round_trips", &round_trips}, {"--json", &json_path}})) {
    return 2;
  }
  size_t blocks = 8192;

  const Variant kVariants[] = {
      {"A: native FreeBSD (no COM)", NetConfig::kNativeBsd, false},
      {"B: OSKit (COM + conversions)", NetConfig::kOskit, false},
      {"C: OSKit, zero-copy rx ablated", NetConfig::kOskit, true},
  };

  double rtt_us[3];
  double mbps[3];
  uint64_t rx_copied[3] = {};
  uint64_t tx_copied[3] = {};
  trace::CounterSnapshot sender_snapshot;
  std::printf("Glue-overhead ablation (%llu round trips, %zu x 4096-byte "
              "blocks, infinite wire)\n\n",
              static_cast<unsigned long long>(round_trips), blocks);
  std::printf("%-34s | %14s | %16s\n", "variant", "rtcp us/rt", "ttcp Mbit/s");
  std::printf("-----------------------------------+----------------+--------------"
              "----\n");
  for (int i = 0; i < 3; ++i) {
    {
      World world;
      world.AddHost("s", kVariants[i].config);
      world.AddHost("c", kVariants[i].config);
      if (kVariants[i].force_rx_copy) {
        world.host(0).stack->SetForceRxCopy(true);
        world.host(1).stack->SetForceRxCopy(true);
      }
      RtcpResult r = RunRtcp(world, round_trips);
      rtt_us[i] = r.UsecPerRoundTripWall();
    }
    {
      World world;
      world.AddHost("rx", kVariants[i].config);
      world.AddHost("tx", kVariants[i].config);
      if (kVariants[i].force_rx_copy) {
        world.host(0).stack->SetForceRxCopy(true);
        world.host(1).stack->SetForceRxCopy(true);
      }
      TtcpResult t = RunTtcp(world, 4096, blocks);
      mbps[i] = t.MbitPerSecWall();
      // Both sides of the copy ledger come from the per-host counter
      // registries, not from bench-local bookkeeping.
      rx_copied[i] =
          world.host(0).trace.registry.Value("net.rx.glue_copied_bytes");
      tx_copied[i] = t.sender_glue_copied_bytes;
      if (kVariants[i].config == NetConfig::kOskit && !kVariants[i].force_rx_copy) {
        sender_snapshot = world.host(1).trace.registry.Snapshot();
      }
    }
    std::printf("%-34s | %14.2f | %16.0f\n", kVariants[i].name, rtt_us[i], mbps[i]);
  }

  std::printf("\nDecomposition (per 1-byte round trip):\n");
  std::printf("  COM boundary + bufio conversion + glue : %+.2f us (B - A)\n",
              rtt_us[1] - rtt_us[0]);
  std::printf("  (C - B is below measurement noise for 1-byte packets: the\n"
              "   forced copy moves ~60 bytes; its real cost shows in the\n"
              "   bulk counters below.)\n");
  std::printf("\nBulk-transfer mechanism counters (deterministic, %zu x "
              "4096-byte transfer):\n", blocks);
  for (int i = 0; i < 3; ++i) {
    std::printf("  %-34s tx glue copies %10llu bytes | rx glue copies %10llu "
                "bytes\n", kVariants[i].name,
                static_cast<unsigned long long>(tx_copied[i]),
                static_cast<unsigned long long>(rx_copied[i]));
  }
  // P6-scaled receive-side cost of losing the zero-copy import (the extra
  // bytes really copied, at 70 MB/s 1997 memory bandwidth).
  double total_bytes = blocks * 4096.0;
  double extra_s = static_cast<double>(rx_copied[2]) / 70e6;
  double base_s = total_bytes / 1448.0 * 100e-6 + total_bytes / 70e6 +
                  total_bytes / 50e6;
  std::printf("\n  P6-scaled: the ablated receive copy adds %.0f ms to a "
              "%.0f MB transfer (%.0f%% slower receiver) —\n  the mechanism "
              "that keeps Table 1's OSKit receive row at FreeBSD levels.\n",
              extra_s * 1e3, total_bytes / 1048576.0, 100.0 * extra_s / base_s);

  // Registry snapshot of the variant-B sender: the same numbers kmon's
  // `counters` command would show on that machine.
  std::printf("\nVariant B sender counter snapshot (trace registry):\n");
  for (const auto& [name, value] : sender_snapshot) {
    if (value != 0 && (name.rfind("glue.", 0) == 0 || name.rfind("net.tcp.", 0) == 0 ||
                       name.rfind("machine.", 0) == 0)) {
      std::printf("  %-32s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }

  bench::Report report("ablation_glue", json_path);
  report.json.Set("round_trips", round_trips).Set("blocks", blocks);
  for (int i = 0; i < 3; ++i) {
    report.json.Push("variants", bench::Json()
                                     .Set("name", kVariants[i].name)
                                     .Set("rtcp_us_per_rt", rtt_us[i])
                                     .Set("ttcp_mbps", mbps[i])
                                     .Set("tx_glue_copied_bytes", tx_copied[i])
                                     .Set("rx_glue_copied_bytes", rx_copied[i]));
  }
  report.json.Set("sender_counters", bench::Json::Object(sender_snapshot));
  return report.Finish();
}
