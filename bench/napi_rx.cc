// NAPI ablation: RX interrupt mitigation + budgeted polled dispatch.
//
// The 1997 driver raised one interrupt per received frame; at 100 Mbps that
// is ~8600 interrupts per second of pure dispatch overhead on the receive
// path (and the receive-livelock literature's whole complaint).  This bench
// runs the same wire-limited ttcp transfer twice:
//
//   oskit (per-frame)     — seed behaviour: NIC mitigation registers at
//                           their defaults (threshold 1, no holdoff), glue
//                           drains the ring from the ISR, one IRQ per frame;
//   oskit_napi            — NIC raises only after 8 frames pend or a 1 ms
//                           holdoff expires (ring-occupancy fallback at 3/4
//                           full), glue masks RX, drains up to a 16-frame
//                           budget per softirq-style dispatch, re-enables
//                           and RE-CHECKS the ring, and hands each drained
//                           burst to TCP as one batch (one delayed-ACK pass).
//
// Everything is counter-verified from the receiver's trace registry: IRQs
// actually raised per frame actually delivered (nic.rx.coalesce.*), frames
// per poll dispatch (glue.rx.poll.*), and TCP batch passes (net.tcp.*).
// The headline claim — the PR's acceptance criterion — is a >= 4x reduction
// in RX interrupts per delivered frame at wire saturation, with the byte
// count asserted identical by the ttcp harness itself.

#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/ttcp.h"
#include "src/trace/trace.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

struct Metrics {
  const char* json_key;
  double sim_mbps = 0;
  double second_half_mbps = 0;  // past slow start: the saturated rate
  uint64_t rx_frames = 0;       // frames the receiver's NIC accepted
  uint64_t rx_irqs = 0;         // RX interrupts actually raised for them
  uint64_t threshold_fires = 0;
  uint64_t holdoff_fires = 0;
  uint64_t ring_fires = 0;
  uint64_t polls = 0;           // glue poll dispatches
  uint64_t poll_frames = 0;     // frames delivered by those dispatches
  uint64_t budget_exhausted = 0;
  uint64_t reenable_races = 0;  // frames caught by the post-re-enable check
  uint64_t rx_batches = 0;      // TCP batch passes on the receiver
  uint64_t batched_outputs = 0;

  double IrqsPerFrame() const {
    return rx_frames > 0 ? static_cast<double>(rx_irqs) / rx_frames : 0;
  }
  double FramesPerPoll() const {
    return polls > 0 ? static_cast<double>(poll_frames) / polls : 0;
  }
};

Metrics RunConfig(const char* json_key, NetConfig config, size_t blocks) {
  // Wire-limited, as the claim is about saturation-rate interrupt load.
  EthernetWire::Config wire;
  wire.bits_per_second = 100 * 1000 * 1000;
  wire.propagation_ns = 5 * kNsPerUs;
  World world(wire);
  world.AddHost("rx", config);
  world.AddHost("tx", config);
  TtcpResult r = RunTtcp(world, /*block_size=*/4096, blocks);

  Metrics m;
  m.json_key = json_key;
  m.sim_mbps = r.MbitPerSecSim();
  m.second_half_mbps = r.second_half_mbit_per_sec_sim;
  const trace::CounterRegistry& reg = world.host(0).trace.registry;
  m.rx_frames = reg.Value("nic.rx.coalesce.frames");
  m.rx_irqs = reg.Value("nic.rx.coalesce.irqs");
  m.threshold_fires = reg.Value("nic.rx.coalesce.threshold_fires");
  m.holdoff_fires = reg.Value("nic.rx.coalesce.holdoff_fires");
  m.ring_fires = reg.Value("nic.rx.coalesce.ring_fallback_fires");
  m.polls = reg.Value("glue.rx.poll.polls");
  m.poll_frames = reg.Value("glue.rx.poll.frames");
  m.budget_exhausted = reg.Value("glue.rx.poll.budget_exhausted");
  m.reenable_races = reg.Value("glue.rx.poll.reenable_races");
  m.rx_batches = reg.Value("net.tcp.rx_batches");
  m.batched_outputs = reg.Value("net.tcp.batched_outputs");
  return m;
}

void PrintRow(const char* name, const Metrics& m) {
  std::printf("%-26s | %10.1f | %8llu | %8llu | %9.3f | %8llu | %11.1f\n",
              name, m.sim_mbps, static_cast<unsigned long long>(m.rx_frames),
              static_cast<unsigned long long>(m.rx_irqs), m.IrqsPerFrame(),
              static_cast<unsigned long long>(m.polls), m.FramesPerPoll());
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t blocks = 2048;
  const char* json_path = nullptr;
  if (!bench::ParseFlags(argc, argv,
                         {{"blocks", &blocks}, {"--json", &json_path}})) {
    return 2;
  }

  std::printf("NAPI ablation: wire-limited ttcp (%zu x 4096-byte blocks), "
              "receiver-side interrupt accounting\n\n",
              blocks);

  Metrics perframe = RunConfig("oskit_perframe", NetConfig::kOskit, blocks);
  Metrics napi = RunConfig("oskit_napi", NetConfig::kOskitNapi, blocks);

  std::printf("%-26s | %10s | %8s | %8s | %9s | %8s | %11s\n", "configuration",
              "wire Mbit/s", "frames", "RX IRQs", "IRQ/frame", "polls",
              "frames/poll");
  std::printf("---------------------------+------------+----------+----------+"
              "-----------+----------+------------\n");
  PrintRow("OSKit, per-frame IRQ", perframe);
  PrintRow("OSKit, coalesced+polled", napi);
  std::printf("\nnapi IRQ causes: threshold=%llu holdoff=%llu ring=%llu; "
              "budget exhausted=%llu, re-enable races caught=%llu, "
              "tcp batches=%llu (outputs deferred into them=%llu)\n",
              static_cast<unsigned long long>(napi.threshold_fires),
              static_cast<unsigned long long>(napi.holdoff_fires),
              static_cast<unsigned long long>(napi.ring_fires),
              static_cast<unsigned long long>(napi.budget_exhausted),
              static_cast<unsigned long long>(napi.reenable_races),
              static_cast<unsigned long long>(napi.rx_batches),
              static_cast<unsigned long long>(napi.batched_outputs));

  bench::Report report("napi_rx", json_path);
  std::printf("\nShape checks:\n");

  // The seed path really is one interrupt per frame (this is the ablation
  // baseline — if it drifts, the reduction factor below means nothing).
  report.Check("per_frame",
               perframe.IrqsPerFrame() > 0.99 && perframe.polls == 0,
               "%.3f IRQs/frame, %llu polls (1997 behaviour: one IRQ per "
               "frame, ISR drain)",
               perframe.IrqsPerFrame(),
               static_cast<unsigned long long>(perframe.polls));

  // The acceptance criterion: >= 4x fewer RX interrupts per delivered frame.
  double reduction = napi.IrqsPerFrame() > 0
                         ? perframe.IrqsPerFrame() / napi.IrqsPerFrame()
                         : 0;
  report.Check("mitigation", reduction >= 4.0,
               "%.3f -> %.3f IRQs/frame (%.1fx fewer; acceptance floor 4x)",
               perframe.IrqsPerFrame(), napi.IrqsPerFrame(), reduction);

  // The polled path really carried the frames (not the legacy ISR drain),
  // and each dispatch amortised over several frames.
  // (tolerate a couple of frames parked in the ring when the simulation's
  // fibers finish mid-close-handshake)
  report.Check("polling",
               napi.polls > 0 && napi.poll_frames + 4 >= napi.rx_frames &&
                   napi.poll_frames <= napi.rx_frames &&
                   napi.FramesPerPoll() > 1.5,
               "%llu/%llu frames via poll dispatch, %.1f frames/poll",
               static_cast<unsigned long long>(napi.poll_frames),
               static_cast<unsigned long long>(napi.rx_frames),
               napi.FramesPerPoll());

  // The burst fed TCP as batches: one delayed-ACK pass per burst, several
  // inputs folded into each deferred output.
  report.Check("tcp_batch",
               napi.rx_batches > 0 && napi.batched_outputs >= napi.rx_batches,
               "%llu batch passes, %llu deferred outputs",
               static_cast<unsigned long long>(napi.rx_batches),
               static_cast<unsigned long long>(napi.batched_outputs));

  // Mitigation must not cost bandwidth at saturation (byte-for-byte
  // delivery is already asserted inside the ttcp harness).  The rates
  // compared are over the second half of the bytes: the whole-transfer rate
  // also holds slow start across 1 ms holdoff-latency round trips, a fixed
  // cost that a short transfer cannot amortise.
  report.Check("bandwidth", napi.second_half_mbps > 0.95 * perframe.second_half_mbps,
               "%.1f vs %.1f Mbit/s wire-limited, second half (whole %.1f vs %.1f)",
               napi.second_half_mbps, perframe.second_half_mbps, napi.sim_mbps, perframe.sim_mbps);

  report.json.Set("blocks", blocks);
  for (const Metrics* m : {&perframe, &napi}) {
    report.json.Push(
        "configs", bench::Json()
                       .Set("config", m->json_key)
                       .Set("sim_mbps", m->sim_mbps)
                       .Set("second_half_sim_mbps", m->second_half_mbps)
                       .Set("rx_frames", m->rx_frames)
                       .Set("rx_irqs", m->rx_irqs)
                       .Set("irqs_per_frame", m->IrqsPerFrame())
                       .Set("polls", m->polls)
                       .Set("poll_frames", m->poll_frames)
                       .Set("frames_per_poll", m->FramesPerPoll())
                       .Set("threshold_fires", m->threshold_fires)
                       .Set("holdoff_fires", m->holdoff_fires)
                       .Set("ring_fallback_fires", m->ring_fires)
                       .Set("budget_exhausted", m->budget_exhausted)
                       .Set("reenable_races", m->reenable_races)
                       .Set("tcp_rx_batches", m->rx_batches)
                       .Set("tcp_batched_outputs", m->batched_outputs));
  }
  report.json.Set("checks.irq_reduction_factor", reduction)
      .Set("checks.acceptance_floor", 4.0);
  return report.Finish();
}
