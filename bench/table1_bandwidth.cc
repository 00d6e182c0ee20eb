// Table 1 reproduction: ttcp TCP bandwidth across the stack configurations.
//
// Paper setup: two Pentium Pro 200 MHz PCs on 100 Mbps Ethernet, ttcp
// sending 131072 x 4096-byte blocks; rows Linux 2.0.29, FreeBSD 2.1.5, and
// the OSKit (FreeBSD stack + Linux drivers).  Findings: the OSKit receives
// about as fast as FreeBSD (the received skbuff maps into an mbuf cluster
// without copying) but sends slower (discontiguous mbuf chains had to be
// copied into contiguous skbuffs).
//
// This harness runs the OSKit configuration twice: once over the 1997
// driver, bound without its gather entry point so the glue flattens every
// discontiguous send (reproducing the paper's measured asymmetry), and once
// with the scatter-gather transmit path (BufIoVec + gather DMA), which
// removes the send-side copy entirely.  The key derived
// figure is bytes-copied-per-byte-sent: ~1.0 for the flatten path, 0 for
// scatter-gather.
//
// Both machines of a pair run the same configuration, as in the paper.
// Three views of each transfer:
//
//   wire-limited (sim)  : simulated time against the 100 Mbps wire model —
//                         every configuration saturates the wire, as the
//                         paper's systems nearly did;
//   software path (wall): host CPU time of the whole two-machine software
//                         stack with an infinite wire.  On a modern CPU the
//                         extra 1.4 KB copy per segment is ~1% — real but
//                         below run-to-run noise, so this column shows the
//                         overall cost, not the asymmetry;
//   P6-scaled model     : bandwidth computed from the transfer's REAL,
//                         deterministic work counters (segments actually
//                         sent, bytes actually checksummed, bytes actually
//                         copied by the glue — all from executed code) and
//                         1997-hardware constants (documented below).  The
//                         paper's asymmetry lives here, because in 1997 the
//                         per-byte costs dominated.
//
// Model constants (order-of-magnitude P6/200): memcpy 70 MB/s, IP/TCP
// checksum 50 MB/s, 100 us fixed protocol+driver+interrupt cost per segment
// per side — chosen so a native endpoint lands near the paper's 1997
// throughput regime (CPU-bound just below the 100 Mbps wire).
//
// The two OSKit rows without the flatten toggle also carry the interrupt
// model (not a paper table; the 1997 driver raised one RX interrupt per
// frame).  Their wire-limited runs are the per-frame and the coalesced+
// polled receiver, and the receiver's trace registry gives IRQs actually
// raised per frame actually delivered (nic.rx.coalesce.*), frames per poll
// dispatch (glue.rx.poll.*) and TCP batch passes (net.tcp.*).  The claim is
// a >= 4x reduction in RX interrupts per delivered frame at wire
// saturation, at no cost in bandwidth.

#include <cstdio>

#include "bench/harness.h"
#include "src/testbed/ttcp.h"
#include "src/trace/trace.h"

using namespace oskit;
using namespace oskit::testbed;

namespace {

constexpr double kMemcpyBw = 70e6;    // bytes/s
constexpr double kChecksumBw = 50e6;  // bytes/s
constexpr double kFixedPerSegment = 100e-6;  // s, per side
constexpr double kWireBps = 100e6;
constexpr double kMss = 1448;

struct Row {
  const char* name;
  const char* json_key;
  NetConfig config;
  bool flatten_send;  // the 1997 driver: no gather DMA, the glue copies
};

// The receiver's interrupt accounting in the wire-limited run.
struct RxIrq {
  uint64_t frames;            // frames the receiver's NIC accepted
  uint64_t irqs;              // RX interrupts actually raised for them
  uint64_t threshold_fires;
  uint64_t holdoff_fires;
  uint64_t ring_fires;
  uint64_t polls;             // glue poll dispatches
  uint64_t poll_frames;       // frames delivered by those dispatches
  uint64_t budget_exhausted;
  uint64_t reenable_races;    // frames caught by the post-re-enable check
  uint64_t tcp_rx_batches;    // TCP batch passes
  uint64_t tcp_batched_outputs;

  double IrqsPerFrame() const {
    return frames > 0 ? static_cast<double>(irqs) / frames : 0;
  }
  double FramesPerPoll() const {
    return polls > 0 ? static_cast<double>(poll_frames) / polls : 0;
  }
};

struct Cell {
  double wall_mbps;
  double sim_mbps;
  double second_half_mbps;  // wire run past slow start: the saturated rate
  double model_send_mbps;   // bottlenecked by the sending machine
  double model_recv_mbps;   // bottlenecked by the receiving machine
  uint64_t bytes_sent;
  uint64_t glue_copied_bytes;
  uint64_t sg_frames;
  uint64_t sg_segments;
  RxIrq rx;                                // receiver, wire-limited run
  trace::CounterSnapshot sender_counters;  // sender registry after the run

  // The headline derived figure: how many bytes the boundary glue copied
  // for every byte that went out on the wire.
  double CopiedPerByte() const {
    return bytes_sent > 0
               ? static_cast<double>(glue_copied_bytes) / bytes_sent
               : 0;
  }
};

Cell RunConfig(const Row& row, size_t blocks, size_t block_size) {
  Cell cell{};
  auto apply_toggles = [&](World& world) {
    if (row.flatten_send) {
      world.host(0).ether_dev->WithoutGatherDma();
      world.host(1).ether_dev->WithoutGatherDma();
    }
  };
  // Wire-limited run (smaller: it is wire-paced anyway).  The mitigated
  // configuration gets the full transfer: its slow-start ramp crosses ~1 ms
  // holdoff-latency RTTs, a fixed cost that needs amortising before the
  // steady-state (saturated) rate shows.
  {
    EthernetWire::Config wire;
    wire.bits_per_second = static_cast<uint64_t>(kWireBps);
    wire.propagation_ns = 5 * kNsPerUs;
    World world(wire);
    world.AddHost("rx", row.config);
    world.AddHost("tx", row.config);
    apply_toggles(world);
    size_t wire_blocks =
        row.config == NetConfig::kOskitNapi ? blocks : blocks / 4;
    TtcpResult r = RunTtcp(world, block_size, wire_blocks);
    cell.sim_mbps = r.MbitPerSecSim();
    cell.second_half_mbps = r.second_half_mbit_per_sec_sim;
    const trace::CounterRegistry& reg = world.host(0).trace.registry;
    cell.rx = {reg.Value("nic.rx.coalesce.frames"),
               reg.Value("nic.rx.coalesce.irqs"),
               reg.Value("nic.rx.coalesce.threshold_fires"),
               reg.Value("nic.rx.coalesce.holdoff_fires"),
               reg.Value("nic.rx.coalesce.ring_fallback_fires"),
               reg.Value("glue.rx.poll.polls"),
               reg.Value("glue.rx.poll.frames"),
               reg.Value("glue.rx.poll.budget_exhausted"),
               reg.Value("glue.rx.poll.reenable_races"),
               reg.Value("net.tcp.rx_batches"),
               reg.Value("net.tcp.batched_outputs")};
  }
  // Software-path run.
  TtcpResult sw;
  {
    World world;
    world.AddHost("rx", row.config);
    world.AddHost("tx", row.config);
    apply_toggles(world);
    sw = RunTtcp(world, block_size, blocks);
    cell.wall_mbps = sw.MbitPerSecWall();
    cell.sender_counters = world.host(1).trace.registry.Snapshot();
  }
  // Registry-sourced (TtcpResult fills these from the sender host's trace
  // counter registry, "glue.send.*").
  cell.bytes_sent = sw.bytes_transferred;
  cell.glue_copied_bytes = sw.sender_glue_copied_bytes;
  cell.sg_frames = sw.sender_glue_sg_frames;
  cell.sg_segments = sw.sender_glue_sg_segments;

  // ---- The P6-scaled model, fed by the transfer's real counters ----
  double bytes = static_cast<double>(sw.bytes_transferred);
  double segments = bytes / kMss;

  // Sender-side seconds: fixed per segment, the socket-layer user->buffer
  // copy, the checksum over every byte, plus whatever the glue REALLY
  // copied (zero for the natives and for scatter-gather OSKit, ~all bytes
  // for flatten OSKit).
  double sender_s = segments * kFixedPerSegment + bytes / kMemcpyBw +
                    bytes / kChecksumBw +
                    static_cast<double>(cell.glue_copied_bytes) / kMemcpyBw;
  // Receiver-side seconds: fixed per segment, checksum, buffer->user copy.
  // The OSKit receive path mapped every packet (glue rx copies = 0), so it
  // models identically to native FreeBSD — exactly the paper's point.
  double receiver_s = segments * kFixedPerSegment + bytes / kChecksumBw +
                      bytes / kMemcpyBw;
  double wire_s = bytes * 8 / kWireBps;

  auto mbps = [&](double side_s) {
    double t = side_s > wire_s ? side_s : wire_s;
    return bytes * 8 / t / 1e6;
  };
  cell.model_send_mbps = mbps(sender_s);
  cell.model_recv_mbps = mbps(receiver_s);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  // Paper: 131072 blocks (512 MB).  Default 8192 blocks (32 MB) per cell so
  // the table runs in seconds; pass a block count to scale.
  uint64_t blocks = 8192;
  const char* json_path = nullptr;
  if (!bench::ParseFlags(argc, argv,
                         {{"blocks", &blocks}, {"--json", &json_path}})) {
    return 2;
  }
  const size_t kBlockSize = 4096;

  const Row kRows[] = {
      {"Linux 2.0.29 (native skbuff stack)", "linux", NetConfig::kNativeLinux,
       false},
      {"FreeBSD 2.1.5 (native mbuf stack)", "freebsd", NetConfig::kNativeBsd,
       false},
      {"OSKit, flatten send (1997 glue)", "oskit_flatten", NetConfig::kOskit,
       true},
      {"OSKit, scatter-gather send", "oskit_sg", NetConfig::kOskit, false},
      {"OSKit, coalesced+polled RX", "oskit_napi", NetConfig::kOskitNapi,
       false},
  };
  constexpr int kNumRows = 5;

  std::printf("Table 1: TCP bandwidth measured with ttcp "
              "(%zu blocks x %zu bytes = %.0f MB per cell)\n",
              blocks, kBlockSize, blocks * kBlockSize / 1048576.0);
  std::printf("(both machines of each pair run the configuration, as in the "
              "paper)\n\n");

  Cell cells[kNumRows];
  for (int i = 0; i < kNumRows; ++i) {
    cells[i] = RunConfig(kRows[i], blocks, kBlockSize);
  }

  std::printf("%-36s | %10s | %10s | %11s | %11s | %12s | %9s\n",
              "configuration", "wire (sim)", "sw (wall)", "model send",
              "model recv", "glue copies", "copied/");
  std::printf("%-36s | %10s | %10s | %11s | %11s | %12s | %9s\n", "", "Mbit/s",
              "Mbit/s", "Mbit/s", "Mbit/s", "bytes", "byte sent");
  std::printf("-------------------------------------+------------+------------+"
              "-------------+-------------+--------------+----------\n");
  for (int i = 0; i < kNumRows; ++i) {
    std::printf("%-36s | %10.1f | %10.0f | %11.1f | %11.1f | %12llu | %9.3f\n",
                kRows[i].name, cells[i].sim_mbps, cells[i].wall_mbps,
                cells[i].model_send_mbps, cells[i].model_recv_mbps,
                static_cast<unsigned long long>(cells[i].glue_copied_bytes),
                cells[i].CopiedPerByte());
  }

  const Cell& bsd = cells[1];
  const Cell& flatten = cells[2];
  const Cell& sg = cells[3];
  double flatten_send_ratio = flatten.model_send_mbps / bsd.model_send_mbps;
  double sg_send_ratio = sg.model_send_mbps / bsd.model_send_mbps;
  double recv_ratio = sg.model_recv_mbps / bsd.model_recv_mbps;
  bench::Report report("table1_bandwidth_sg", json_path);
  std::printf("\nShape checks against the paper's findings:\n");
  report.Check("receive", recv_ratio > 0.98 && recv_ratio < 1.02,
               "OSKit/FreeBSD = %.3f  (paper ~1.0 — zero-copy "
               "skbuff->mbuf mapping; glue rx copies = 0)",
               recv_ratio);
  report.Check("send_flatten", flatten_send_ratio < 0.95,
               "OSKit/FreeBSD = %.3f  (paper < 1 — the glue really copied "
               "%llu of %.0f MB through mbuf->skbuff)",
               flatten_send_ratio,
               static_cast<unsigned long long>(flatten.glue_copied_bytes),
               blocks * kBlockSize / 1048576.0);
  // The scatter-gather path must copy strictly less per byte than the
  // flatten path — this is the tentpole claim, counter-verified.
  report.Check("send_sg",
               sg.CopiedPerByte() < flatten.CopiedPerByte() &&
                   sg.glue_copied_bytes == 0 && sg.sg_frames > 0,
               "copied-per-byte %.3f -> %.3f, %llu gather frames (%llu "
               "segments) — the send copy is gone",
               flatten.CopiedPerByte(), sg.CopiedPerByte(),
               static_cast<unsigned long long>(sg.sg_frames),
               static_cast<unsigned long long>(sg.sg_segments));
  report.Check("send_model",
               sg_send_ratio > flatten_send_ratio && sg_send_ratio > 0.98,
               "OSKit-sg/FreeBSD = %.3f  (> flatten's %.3f and ~1.0: "
               "scatter-gather restores parity)",
               sg_send_ratio, flatten_send_ratio);
  std::printf("  natives:      FreeBSD and Linux pay no conversion copy (glue "
              "bytes: %llu / %llu)\n",
              static_cast<unsigned long long>(cells[0].glue_copied_bytes),
              static_cast<unsigned long long>(cells[1].glue_copied_bytes));
  std::printf("  wire:         every configuration saturates the simulated 100 "
              "Mbps wire: %.1f / %.1f / %.1f / %.1f / %.1f Mbit/s\n",
              cells[0].sim_mbps, cells[1].sim_mbps, cells[2].sim_mbps,
              cells[3].sim_mbps, cells[4].sim_mbps);
  // Interrupt mitigation must not cost bandwidth: the coalesced+polled row
  // has to saturate the wire like its per-frame twin.  Compared over the
  // second half of the bytes, past the slow start that whole-transfer rates
  // include.
  const Cell& napi = cells[4];
  report.Check("napi", napi.second_half_mbps > 0.95 * sg.second_half_mbps,
               "coalesced+polled wire rate %.1f vs per-frame %.1f Mbit/s over "
               "the second half (mitigation must not cost bandwidth)",
               napi.second_half_mbps, sg.second_half_mbps);

  // The interrupt model, from the receivers of the same two wire runs.  The
  // per-frame path really is one interrupt per frame (the baseline: if it
  // drifts, the reduction factor below means nothing).
  const RxIrq& perframe_rx = sg.rx;
  const RxIrq& polled_rx = napi.rx;
  report.Check("per_frame",
               perframe_rx.IrqsPerFrame() > 0.99 && perframe_rx.polls == 0,
               "%.3f IRQs/frame, %llu polls (1997 behaviour: one IRQ per "
               "frame, ISR drain)",
               perframe_rx.IrqsPerFrame(),
               static_cast<unsigned long long>(perframe_rx.polls));
  double reduction =
      polled_rx.IrqsPerFrame() > 0
          ? perframe_rx.IrqsPerFrame() / polled_rx.IrqsPerFrame()
          : 0;
  report.Check("mitigation", reduction >= 4.0,
               "%.3f -> %.3f IRQs/frame (%.1fx fewer; the claim is 4x)",
               perframe_rx.IrqsPerFrame(), polled_rx.IrqsPerFrame(),
               reduction);
  // The polled path really carried the frames (not the ISR drain), and each
  // dispatch amortised over several frames (tolerating a couple of frames
  // parked in the ring when the fibers finish mid-close-handshake).
  report.Check("polling",
               polled_rx.polls > 0 &&
                   polled_rx.poll_frames + 4 >= polled_rx.frames &&
                   polled_rx.poll_frames <= polled_rx.frames &&
                   polled_rx.FramesPerPoll() > 1.5,
               "%llu/%llu frames via poll dispatch, %.1f frames/poll",
               static_cast<unsigned long long>(polled_rx.poll_frames),
               static_cast<unsigned long long>(polled_rx.frames),
               polled_rx.FramesPerPoll());
  // The burst fed TCP as batches: one delayed-ACK pass per burst, several
  // inputs folded into each deferred output.
  report.Check("tcp_batch",
               polled_rx.tcp_rx_batches > 0 &&
                   polled_rx.tcp_batched_outputs >= polled_rx.tcp_rx_batches,
               "%llu batch passes, %llu deferred outputs",
               static_cast<unsigned long long>(polled_rx.tcp_rx_batches),
               static_cast<unsigned long long>(polled_rx.tcp_batched_outputs));
  std::printf("  napi causes:  threshold=%llu holdoff=%llu ring=%llu IRQs; "
              "budget exhausted=%llu, re-enable races caught=%llu\n",
              static_cast<unsigned long long>(polled_rx.threshold_fires),
              static_cast<unsigned long long>(polled_rx.holdoff_fires),
              static_cast<unsigned long long>(polled_rx.ring_fires),
              static_cast<unsigned long long>(polled_rx.budget_exhausted),
              static_cast<unsigned long long>(polled_rx.reenable_races));

  // Sender-side counter snapshots from each configuration's trace registry
  // (the same numbers kmon's `counters` command shows on that machine).
  std::printf("\nSender counter snapshots (trace registry, software-path run):\n");
  for (int i = 0; i < kNumRows; ++i) {
    std::printf("  %s\n", kRows[i].name);
    for (const auto& [name, value] : cells[i].sender_counters) {
      if (value != 0 &&
          (name.rfind("glue.send.", 0) == 0 || name == "net.tcp.out" ||
           name == "linux.tcp.out" || name == "machine.irq.dispatched")) {
        std::printf("    %-32s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }

  report.json.Set("blocks", blocks).Set("block_size", kBlockSize);
  for (int i = 0; i < kNumRows; ++i) {
    const Cell& c = cells[i];
    report.json.Push("rows", bench::Json()
                                 .Set("config", kRows[i].json_key)
                                 .Set("bytes_sent", c.bytes_sent)
                                 .Set("glue_copied_bytes", c.glue_copied_bytes)
                                 .Set("copied_per_byte_sent", c.CopiedPerByte())
                                 .Set("sg_frames", c.sg_frames)
                                 .Set("sg_segments", c.sg_segments)
                                 .Set("model_send_mbps", c.model_send_mbps)
                                 .Set("model_recv_mbps", c.model_recv_mbps)
                                 .Set("sim_mbps", c.sim_mbps)
                                 .Set("second_half_sim_mbps", c.second_half_mbps));
  }
  report.json.Set("checks.recv_ratio", recv_ratio)
      .Set("checks.flatten_send_ratio", flatten_send_ratio)
      .Set("checks.sg_send_ratio", sg_send_ratio)
      .Set("checks.sg_copied_per_byte", sg.CopiedPerByte())
      .Set("checks.sg_frames", sg.sg_frames)
      .Set("checks.flatten_copied_per_byte", flatten.CopiedPerByte())
      .Set("checks.irq_reduction_factor", reduction);
  for (int i : {3, 4}) {
    const RxIrq& rx = cells[i].rx;
    report.json.Push(
        "rx_irq", bench::Json()
                      .Set("config", kRows[i].json_key)
                      .Set("rx_frames", rx.frames)
                      .Set("rx_irqs", rx.irqs)
                      .Set("irqs_per_frame", rx.IrqsPerFrame())
                      .Set("polls", rx.polls)
                      .Set("poll_frames", rx.poll_frames)
                      .Set("frames_per_poll", rx.FramesPerPoll())
                      .Set("threshold_fires", rx.threshold_fires)
                      .Set("holdoff_fires", rx.holdoff_fires)
                      .Set("ring_fallback_fires", rx.ring_fires)
                      .Set("budget_exhausted", rx.budget_exhausted)
                      .Set("reenable_races", rx.reenable_races)
                      .Set("tcp_rx_batches", rx.tcp_rx_batches)
                      .Set("tcp_batched_outputs", rx.tcp_batched_outputs));
  }
  return report.Finish();
}
