// IPv4: input validation, fragment reassembly, routing, output with
// fragmentation.

#include <cstring>

#include "src/base/checksum.h"
#include "src/base/panic.h"
#include "src/net/stack.h"

namespace oskit::net {

namespace {

constexpr SimTime kFragLifetime = 30 * kNsPerSec;
constexpr size_t kMaxDatagram = 65535;

}  // namespace

int NetStack::RouteFor(InetAddr dst, InetAddr* out_next_hop) {
  // Directly-attached subnets only.
  for (size_t i = 0; i < ifaces_.size(); ++i) {
    const Iface& iface = ifaces_[i];
    if (iface.configured &&
        (dst.value & iface.netmask.value) == (iface.addr.value & iface.netmask.value)) {
      *out_next_hop = dst;
      return static_cast<int>(i);
    }
  }
  return -1;
}

Error NetStack::IpOutput(uint8_t proto, InetAddr src, InetAddr dst, MBuf* payload) {
  // Local delivery (talking to our own address loops back below IP).
  for (const Iface& iface : ifaces_) {
    if (iface.configured && iface.addr == dst) {
      MBuf* dgram = pool_.Prepend(payload, kIpHeaderSize);
      Ipv4Header ip;
      ip.total_len = static_cast<uint16_t>(dgram->pkt_len);
      ip.ident = ip_ident_++;
      ip.proto = proto;
      ip.src = src;
      ip.dst = dst;
      ip.Serialize(dgram->data);
      ++counters_.ip_out;
      IpInput(0, dgram);
      return Error::kOk;
    }
  }

  InetAddr next_hop;
  int ifindex = RouteFor(dst, &next_hop);
  if (ifindex < 0) {
    pool_.FreeChain(payload);
    return Error::kNetUnreach;
  }
  if (src.IsAny()) {
    src = ifaces_[ifindex].addr;
  }
  size_t payload_len = payload->pkt_len;
  if (payload_len + kIpHeaderSize > kMaxDatagram) {
    pool_.FreeChain(payload);
    return Error::kMsgSize;
  }

  uint16_t ident = ip_ident_++;
  size_t mtu_payload = kEtherMtu - kIpHeaderSize;

  if (payload_len + kIpHeaderSize <= kEtherMtu) {
    // Transport payloads arrive with a header mbuf that reserved headroom
    // (see TcpSendSegment), so this prepend — and the Ethernet one below —
    // extends that leading mbuf in place: no new mbufs, no data movement,
    // and the chain reaches the driver in its original shape.
    MBuf* dgram = pool_.Prepend(payload, kIpHeaderSize);
    Ipv4Header ip;
    ip.total_len = static_cast<uint16_t>(dgram->pkt_len);
    ip.ident = ident;
    ip.proto = proto;
    ip.src = src;
    ip.dst = dst;
    ip.Serialize(dgram->data);
    ++counters_.ip_out;
    IpSendViaIface(ifindex, next_hop, dgram);
    return Error::kOk;
  }

  // Fragment: each piece carries a multiple of 8 payload bytes except the
  // last.
  size_t frag_payload = mtu_payload & ~size_t{7};
  size_t offset = 0;
  while (offset < payload_len) {
    size_t n = payload_len - offset;
    bool last = n <= frag_payload;
    if (!last) {
      n = frag_payload;
    }
    MBuf* piece = pool_.CopyChain(payload, offset, n);
    MBuf* dgram = pool_.Prepend(piece, kIpHeaderSize);
    Ipv4Header ip;
    ip.total_len = static_cast<uint16_t>(n + kIpHeaderSize);
    ip.ident = ident;
    ip.frag = static_cast<uint16_t>((offset / 8) | (last ? 0 : kIpFlagMoreFragments));
    ip.proto = proto;
    ip.src = src;
    ip.dst = dst;
    ip.Serialize(dgram->data);
    ++counters_.ip_out;
    ++counters_.ip_frag_out;
    IpSendViaIface(ifindex, next_hop, dgram);
    offset += n;
  }
  pool_.FreeChain(payload);
  return Error::kOk;
}

void NetStack::IpInput(int ifindex, MBuf* packet) {
  ++counters_.ip_in;
  packet = pool_.Pullup(packet, kIpHeaderSize);
  if (packet == nullptr) {
    return;
  }
  Ipv4Header ip;
  if (!Ipv4Header::Parse(packet->data, packet->len, &ip)) {
    pool_.FreeChain(packet);
    return;
  }
  packet = pool_.Pullup(packet, ip.header_len);
  if (packet == nullptr) {
    return;
  }
  // Header checksum: must sum to zero including the stored checksum.
  if (InetChecksumOf(packet->data, ip.header_len) != 0) {
    ++counters_.ip_bad_checksum;
    pool_.FreeChain(packet);
    return;
  }
  if (ip.total_len > packet->pkt_len) {
    pool_.FreeChain(packet);
    return;
  }
  // Drop link-layer padding (minimum Ethernet frame size pads short IP
  // datagrams).
  if (ip.total_len < packet->pkt_len) {
    pool_.TrimTo(packet, ip.total_len);
  }

  // Are we the destination?  (Broadcast accepted for UDP.)
  bool for_us = false;
  bool broadcast = ip.dst == kInetBroadcast;
  for (const Iface& iface : ifaces_) {
    if (iface.configured && iface.addr == ip.dst) {
      for_us = true;
      break;
    }
  }
  if (!for_us && !broadcast) {
    pool_.FreeChain(packet);  // no forwarding: we are a host, not a router
    return;
  }

  // Strip the header, keeping the parsed copy.
  packet = pool_.TrimFront(packet, ip.header_len);

  // Reassembly.
  if (ip.more_fragments() || ip.frag_offset_bytes() != 0) {
    ++counters_.ip_frags_in;
    FragKey key{ip.src.value, ip.dst.value, ip.ident, ip.proto};
    FragQueue& q = frags_[key];
    if (q.deadline == 0) {
      q.deadline = clock_->Now() + kFragLifetime;
      q.data.resize(kMaxDatagram);
      q.have.resize(kMaxDatagram, false);
    }
    size_t off = ip.frag_offset_bytes();
    size_t len = packet->pkt_len;
    if (off + len > kMaxDatagram) {
      pool_.FreeChain(packet);
      frags_.erase(key);
      return;
    }
    pool_.CopyData(packet, 0, len, q.data.data() + off);
    for (size_t i = 0; i < len; ++i) {
      if (!q.have[off + i]) {
        q.have[off + i] = true;
        ++q.bytes_have;
      }
    }
    pool_.FreeChain(packet);
    if (!ip.more_fragments()) {
      q.total_len = off + len;
    }
    if (q.total_len == 0 || q.bytes_have < q.total_len) {
      return;  // still incomplete
    }
    // Complete: verify there are no holes below total_len.
    for (size_t i = 0; i < q.total_len; ++i) {
      if (!q.have[i]) {
        return;
      }
    }
    MBuf* whole = pool_.FromData(q.data.data(), q.total_len);
    frags_.erase(key);
    ++counters_.ip_reassembled;
    packet = whole;
  }

  switch (ip.proto) {
    case kIpProtoIcmp:
      IcmpInput(ifindex, ip, packet);
      break;
    case kIpProtoUdp:
      UdpInput(ip, packet);
      break;
    case kIpProtoTcp:
      TcpInput(ip, packet);
      break;
    default:
      pool_.FreeChain(packet);
      break;
  }
}

void NetStack::FragTimeoutSweep() {
  SimTime now = clock_->Now();
  for (auto it = frags_.begin(); it != frags_.end();) {
    if (now >= it->second.deadline) {
      it = frags_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace oskit::net
