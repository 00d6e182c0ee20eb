#include "src/machine/switch.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/asan.h"
#include "src/base/panic.h"

namespace oskit {

namespace {

// Packs a 48-bit MAC into the learning-table key.
uint64_t PackMac(const uint8_t* mac) {
  uint64_t key = 0;
  for (int i = 0; i < 6; ++i) {
    key = (key << 8) | mac[i];
  }
  return key;
}

// Group bit (I/G) of the destination address: broadcast and multicast
// frames are never unicast-forwarded, and group source addresses are never
// learned.
bool IsGroupMac(const uint8_t* mac) { return (mac[0] & 0x01) != 0; }

constexpr size_t kMacBytes = 6;
constexpr size_t kHeaderBytes = 14;  // dst + src + ethertype

}  // namespace

VirtualSwitch::VirtualSwitch(SimClock* clock, const Config& config,
                             trace::TraceEnv* trace)
    : clock_(clock), config_(config), rng_(config.fault_seed) {
  trace::TraceEnv* env = trace::Required(trace);
  trace_binding_.Bind(&env->registry,
                      {{"switch.frames.in", &frames_in_},
                       {"switch.frames.unicast", &frames_unicast_},
                       {"switch.frames.flooded", &frames_flooded_},
                       {"switch.frames.dropped", &frames_dropped_},
                       {"switch.frames.duplicated", &frames_duplicated_},
                       {"switch.frames.filtered", &frames_filtered_},
                       {"switch.bytes", &bytes_carried_},
                       {"switch.macs.learned", &macs_learned_, /*gauge=*/true},
                       {"switch.macs.moves", &mac_moves_},
                       {"switch.macs.table_full", &mac_table_full_}});
}

VirtualSwitch::VirtualSwitch(SimClock* clock,
                             const EthernetWire::Config& config,
                             trace::TraceEnv* trace)
    : VirtualSwitch(clock, Config{config, config.fault_seed}, trace) {
  hub_ = true;
}

void VirtualSwitch::Attach(WireEndpoint* endpoint) {
  ports_.push_back(Port{endpoint, config_.port, /*egress_free_at=*/0});
}

int VirtualSwitch::PortOf(const WireEndpoint* endpoint) const {
  for (size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].endpoint == endpoint) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void VirtualSwitch::SetPortConfig(int port, const PortConfig& config) {
  OSKIT_ASSERT_MSG(port >= 0 && static_cast<size_t>(port) < ports_.size(),
                   "bad switch port");
  ports_[port].config = config;
}

VirtualSwitch::FrameRef VirtualSwitch::AcquireFrame() {
  if (free_frames_.empty()) {
    free_frames_.emplace_front();
  }
  in_flight_.splice(in_flight_.begin(), free_frames_, free_frames_.begin());
  FrameRef frame = in_flight_.begin();
  ASAN_UNPOISON_MEMORY_REGION(frame->bytes.data(), frame->bytes.capacity());
  frame->refs = 1;
  frame->bytes.clear();
  return frame;
}

void VirtualSwitch::ReleaseFrame(FrameRef frame) {
  if (--frame->refs != 0) {
    return;
  }
  if (free_frames_.size() >= kFrameCacheMax) {
    in_flight_.erase(frame);
    return;
  }
  ASAN_POISON_MEMORY_REGION(frame->bytes.data(), frame->bytes.capacity());
  free_frames_.splice(free_frames_.begin(), in_flight_, frame);
}

void VirtualSwitch::Transmit(WireEndpoint* source, const uint8_t* const* chunks,
                             const size_t* lens, size_t count) {
  FrameRef frame = AcquireFrame();
  for (size_t i = 0; i < count; ++i) {
    frame->bytes.insert(frame->bytes.end(), chunks[i], chunks[i] + lens[i]);
  }
  Forward(source, frame);
}

void VirtualSwitch::Forward(WireEndpoint* source, FrameRef frame) {
  ++frames_in_;
  bytes_carried_ += frame->bytes.size();
  if (hub_) {
    // One collision domain: the frame takes the medium once, before it fans
    // out and whatever the fault model then does to each copy.
    ++frames_flooded_;
    const SimTime arrival =
        Serialize(&medium_free_at_, config_.port, frame->bytes.size());
    for (const Port& port : ports_) {
      if (port.endpoint != source && !Lost(port)) {
        Deliver(port, frame, arrival);
      }
    }
  } else {
    Switch(source, frame);
  }
  ReleaseFrame(frame);
}

void VirtualSwitch::Switch(WireEndpoint* source, FrameRef frame) {
  int in_port = PortOf(source);
  OSKIT_ASSERT_MSG(in_port >= 0, "transmit from unattached endpoint");
  OSKIT_ASSERT_MSG(frame->bytes.size() >= kHeaderBytes, "runt frame at switch");

  const uint8_t* dst = frame->bytes.data();
  const uint8_t* src = dst + kMacBytes;

  // Learn (or migrate) the source address on the ingress port.
  if (!IsGroupMac(src)) {
    uint64_t key = PackMac(src);
    auto it = mac_table_.find(key);
    if (it == mac_table_.end()) {
      if (mac_table_.size() < kMaxMacs) {
        mac_table_.emplace(key, in_port);
        ++macs_learned_;
      } else {
        ++mac_table_full_;  // table saturated: keep flooding for this MAC
      }
    } else if (it->second != in_port) {
      it->second = in_port;  // station moved ports
      ++mac_moves_;
    }
  }

  // Forwarding decision: unicast to the learned port, else flood.
  auto learned = IsGroupMac(dst) ? mac_table_.end() : mac_table_.find(PackMac(dst));
  if (learned == mac_table_.end()) {
    ++frames_flooded_;
    for (size_t out = 0; out < ports_.size(); ++out) {
      if (static_cast<int>(out) != in_port) {
        Egress(static_cast<int>(out), frame);
      }
    }
  } else if (learned->second == in_port) {
    // Destination lives on the ingress segment; a real switch filters the
    // frame rather than echoing it back.
    ++frames_filtered_;
  } else {
    ++frames_unicast_;
    Egress(learned->second, frame);
  }
}

void VirtualSwitch::Egress(int out, FrameRef frame) {
  Port& port = ports_[static_cast<size_t>(out)];
  // Per-port serialization: frames leave this egress back to back, but two
  // different ports transmit concurrently (no shared collision domain).
  if (!Lost(port)) {
    Deliver(port, frame,
            Serialize(&port.egress_free_at, port.config, frame->bytes.size()));
  }
}

SimTime VirtualSwitch::Serialize(SimTime* free_at, const PortConfig& link,
                                 size_t len) const {
  SimTime start = std::max(clock_->Now(), *free_at);
  SimTime serialize = link.bits_per_second == 0
                          ? 0
                          : static_cast<SimTime>(len) * 8 * kNsPerSec /
                                link.bits_per_second;
  *free_at = start + serialize;
  return *free_at + link.propagation_ns;
}

bool VirtualSwitch::Lost(const Port& port) {
  if (port.config.loss_percent != 0 && rng_.Percent(port.config.loss_percent)) {
    ++frames_dropped_;
    return true;
  }
  return false;
}

void VirtualSwitch::Deliver(const Port& port, FrameRef frame, SimTime arrival) {
  auto jittered = [&, jitter = port.config.reorder_jitter_ns] {
    return arrival + (jitter == 0 ? 0 : rng_.Below(jitter + 1));
  };
  SimTime when = jittered();
  if (port.config.duplicate_percent != 0 &&
      rng_.Percent(port.config.duplicate_percent)) {
    ++frames_duplicated_;
    ScheduleDelivery(port.endpoint, frame, jittered());
  }
  ScheduleDelivery(port.endpoint, frame, when);
}

void VirtualSwitch::ScheduleDelivery(WireEndpoint* dest, FrameRef frame,
                                     SimTime when) {
  ++frame->refs;
  SimTime delay = when > clock_->Now() ? when - clock_->Now() : 0;
  clock_->ScheduleAfter(delay, [this, dest, frame] {
    dest->FrameArrived(frame->bytes.data(), frame->bytes.size());
    ReleaseFrame(frame);
  });
}

}  // namespace oskit
