// Ablation: where does the OSKit's per-packet overhead come from?
//
// Table 2's text attributes the OSKit's extra latency to "the additional
// glue code within the OSKit components: the price we pay for modularity
// and separability".  This harness decomposes that price by toggling the
// layers on the rtcp and ttcp workloads:
//
//   A  native FreeBSD        — no COM boundary, driver eats mbuf chains
//   B  OSKit                 — COM NetIo/BufIo + conversions (zero-copy rx)
//
// B - A  = cost of the COM boundary + bufio conversion machinery

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
      {"A: native FreeBSD (no COM)", NetConfig::kNativeBsd},
      {"B: OSKit (COM + conversions)", NetConfig::kOskit},
  };
  constexpr int kNumVariants = 2;

  double rtt_us[kNumVariants];
  double mbps[kNumVariants];
  uint64_t tx_copied[kNumVariants] = {};
  trace::CounterSnapshot sender_snapshot;
  std::printf("Glue-overhead ablation (%llu round trips, %zu x 4096-byte "
              "blocks, infinite wire)\n\n",
              static_cast<unsigned long long>(round_trips), blocks);
  std::printf("%-34s | %14s | %16s\n", "variant", "rtcp us/rt", "ttcp Mbit/s");
  std::printf("-----------------------------------+----------------+--------------"
              "----\n");
  for (int i = 0; i < kNumVariants; ++i) {
    {
      World world;
      world.AddHost("s", kVariants[i].config);
      world.AddHost("c", kVariants[i].config);
      RtcpResult r = RunRtcp(world, round_trips);
      rtt_us[i] = r.UsecPerRoundTripWall();
    }
    {
      World world;
      world.AddHost("rx", kVariants[i].config);
      world.AddHost("tx", kVariants[i].config);
      TtcpResult t = RunTtcp(world, 4096, blocks);
      mbps[i] = t.MbitPerSecWall();
      // The copy ledger comes from the sender's counter registry, not from
      // bench-local bookkeeping.
      tx_copied[i] = t.sender_glue_copied_bytes;
      if (kVariants[i].config == NetConfig::kOskit) {
        sender_snapshot = world.host(1).trace.registry.Snapshot();
      }
    }
    std::printf("%-34s | %14.2f | %16.0f\n", kVariants[i].name, rtt_us[i], mbps[i]);
  }

  std::printf("\nDecomposition (per 1-byte round trip):\n");
  std::printf("  COM boundary + bufio conversion + glue : %+.2f us (B - A)\n",
              rtt_us[1] - rtt_us[0]);
  std::printf("\nBulk-transfer mechanism counters (deterministic, %zu x "
              "4096-byte transfer):\n", blocks);
  for (int i = 0; i < kNumVariants; ++i) {
    std::printf("  %-34s tx glue copies %10llu bytes\n", kVariants[i].name,
                static_cast<unsigned long long>(tx_copied[i]));
  }

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
  for (int i = 0; i < kNumVariants; ++i) {
    report.json.Push("variants", bench::Json()
                                     .Set("name", kVariants[i].name)
                                     .Set("rtcp_us_per_rt", rtt_us[i])
                                     .Set("ttcp_mbps", mbps[i])
                                     .Set("tx_glue_copied_bytes", tx_copied[i]));
  }
  report.json.Set("sender_counters", bench::Json::Object(sender_snapshot));
  return report.Finish();
}
