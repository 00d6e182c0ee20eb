// Simulated Ethernet fabric: the paper's shared segment, or a learning switch.
//
// The paper's evaluation wired exactly two Pentium Pro PCs to one shared
// 100 Mbps segment.  A VirtualSwitch built from an EthernetWire::Config is
// that segment, a hub: one collision domain whose single serialization
// point, `medium_free_at_`, every frame takes once before it fans out.  So
// two stations that send at once take turns, and a frame the fault model
// then drops has still used the medium.  The hub floods each frame to every
// other port in attach order; it learns and filters nothing, and the NIC
// model does its own destination filtering, like real hardware.
//
// Scaling the simulation to N hosts needs a switched fabric.  Built from a
// VirtualSwitch::Config, every attached NIC gets its own port with a private
// egress queue, the switch learns source MACs per port, forwards unicast
// frames to the learned port only, and floods unknown/broadcast
// destinations.  Two ports transmit concurrently and only contend when
// their frames converge on one egress.
//
// Each port carries its own fault model (loss / duplication / reorder
// jitter) and, on a switch, its own serialization rate and propagation
// delay, so a test can degrade one host's uplink while the rest of the
// fabric stays clean.  Statistics report through the trace registry under
// "switch.*" (§4.6 exposed implementation) in the environment the switch
// is built with (a testbed World passes its own), plus plain getters for
// harnesses that do not bind a registry.
//
// A frame is transmitted as one gather list (a contiguous frame is a list of
// one) and built once, into a refcounted buffer from the switch's own pool;
// every egress port and every duplicate delivers that same buffer, and the
// last delivery returns it to the pool.  Receivers see it as const bytes
// for the length of FrameArrived and copy what they keep: the NIC copies
// it once into an RX buffer of its own (nic.h), which a native BSD driver
// then grafts into an mbuf without copying again.

#ifndef OSKIT_SRC_MACHINE_SWITCH_H_
#define OSKIT_SRC_MACHINE_SWITCH_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/base/random.h"
#include "src/machine/clock.h"
#include "src/trace/trace.h"

namespace oskit {

// Receiver-side attachment: the NIC model implements this.
class WireEndpoint {
 public:
  virtual ~WireEndpoint() = default;
  virtual void FrameArrived(const uint8_t* frame, size_t len) = 0;
};

// The paper's shared segment.  It has no code of its own: a VirtualSwitch
// built from an EthernetWire::Config (defined below) is a hub.
struct EthernetWire {
  struct Config;
};

class VirtualSwitch final {
 public:
  struct PortConfig {
    // 0 means infinite bandwidth (no serialization delay).
    uint64_t bits_per_second = 0;
    SimTime propagation_ns = 0;
    // Fault model, percentages in [0, 100].
    uint32_t loss_percent = 0;
    uint32_t duplicate_percent = 0;
    // Extra random jitter (uniform in [0, reorder_jitter_ns]) added per
    // frame; nonzero values cause reordering.
    SimTime reorder_jitter_ns = 0;
  };

  static constexpr size_t kMaxMacs = 4096;  // learning-table capacity

  struct Config {
    PortConfig port;  // defaults every newly attached port inherits
    uint64_t fault_seed = 1;
  };

  // A learning switch.  `trace` is the observability environment the
  // switch.* counters bind to; null binds the process-global default.
  VirtualSwitch(SimClock* clock, const Config& config,
                trace::TraceEnv* trace = nullptr);
  // A hub: the shared segment, every port on `config`'s link.
  VirtualSwitch(SimClock* clock, const EthernetWire::Config& config,
                trace::TraceEnv* trace = nullptr);

  // Attaching creates the next port (port index = attach order).
  void Attach(WireEndpoint* endpoint);

  // Transmits a complete frame from `source`, described as an iovec-style
  // chunk list that is assembled straight into the pooled frame (gather
  // DMA); a contiguous frame is a one-chunk list.  A hub also carries a
  // frame from an endpoint that never attached (null included) to every
  // port.
  void Transmit(WireEndpoint* source, const uint8_t* const* chunks,
                const size_t* lens, size_t count);

  size_t port_count() const { return ports_.size(); }
  // -1 when the endpoint is not attached.
  int PortOf(const WireEndpoint* endpoint) const;

  // On a hub this sets the port's fault model only: the segment keeps the
  // rate and delay it was built with.
  void SetPortConfig(int port, const PortConfig& config);

  // Statistics (also registered as switch.* counters).
  uint64_t frames_in() const { return frames_in_.value(); }
  uint64_t frames_unicast() const { return frames_unicast_.value(); }
  uint64_t frames_flooded() const { return frames_flooded_.value(); }
  uint64_t frames_dropped() const { return frames_dropped_.value(); }
  uint64_t frames_duplicated() const { return frames_duplicated_.value(); }
  uint64_t frames_filtered() const { return frames_filtered_.value(); }
  uint64_t bytes_carried() const { return bytes_carried_.value(); }
  uint64_t macs_learned() const { return macs_learned_.value(); }
  uint64_t mac_moves() const { return mac_moves_.value(); }
  uint64_t mac_table_full() const { return mac_table_full_.value(); }
  // Pooled frames some scheduled delivery still holds.
  size_t frames_outstanding() const { return in_flight_.size(); }

 private:
  // Free-list high-water mark of the frame pool.
  static constexpr size_t kFrameCacheMax = 256;

  struct Port {
    WireEndpoint* endpoint;
    PortConfig config;
    SimTime egress_free_at = 0;  // per-port serialization point
  };

  struct Frame {
    uint32_t refs = 0;
    std::vector<uint8_t> bytes;  // capacity kept across reuse
  };
  // A pooled frame; list nodes never move, so the handle stays valid until
  // the frame is released.
  using FrameRef = std::list<Frame>::iterator;

  // A frame with one reference (the caller's) and no bytes.
  FrameRef AcquireFrame();
  void ReleaseFrame(FrameRef frame);

  // Fans the frame out (a hub floods, a switch learns and forwards), then
  // drops the transmit's own reference.
  void Forward(WireEndpoint* source, FrameRef frame);
  void Switch(WireEndpoint* source, FrameRef frame);
  // Switch egress: a frame port `out` does not lose takes its egress queue.
  void Egress(int out, FrameRef frame);
  // Frames leave `*free_at` back to back: returns when `len` bytes sent now
  // reach the far end of `link`, and moves `*free_at` past them.
  SimTime Serialize(SimTime* free_at, const PortConfig& link, size_t len) const;
  // Draws the port's loss; counts a dropped frame.
  bool Lost(const Port& port);
  // Draws the port's jitter and duplicate, then schedules the duplicate
  // (if any) and the frame, each as one clock event.
  void Deliver(const Port& port, FrameRef frame, SimTime arrival);
  void ScheduleDelivery(WireEndpoint* dest, FrameRef frame, SimTime when);

  SimClock* clock_;
  Config config_;
  bool hub_ = false;
  SimTime medium_free_at_ = 0;  // hub: the segment's serialization point
  Rng rng_;
  std::vector<Port> ports_;
  std::unordered_map<uint64_t, int> mac_table_;  // 48-bit MAC -> port
  // Frames move between the two lists by splice, which allocates nothing.
  // Deliveries still scheduled when the switch dies hold plain handles, so
  // the lists free every frame exactly once.
  std::list<Frame> in_flight_;
  std::list<Frame> free_frames_;

  // Counters are the single source of truth (a trace::Counter is a plain
  // word); registration is non-owning so the getters above stay cheap.
  trace::Counter frames_in_;
  trace::Counter frames_unicast_;
  trace::Counter frames_flooded_;
  trace::Counter frames_dropped_;
  trace::Counter frames_duplicated_;
  trace::Counter frames_filtered_;  // unicast back out the ingress port
  trace::Counter bytes_carried_;
  trace::Counter macs_learned_;  // gauge: live learning-table entries
  trace::Counter mac_moves_;
  trace::Counter mac_table_full_;
  trace::CounterBlock trace_binding_;
};

// The segment's link, which every port's fault model starts from, and the
// seed of the fault RNG.
struct EthernetWire::Config : VirtualSwitch::PortConfig {
  uint64_t fault_seed = 1;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_SWITCH_H_
