// UDP: PCB management, input demux, checksummed output.

#include <cstring>

#include "src/net/stack.h"

namespace oskit::net {

void NetStack::UdpIndexInsert(UdpPcb* pcb) {
  if (pcb->lport == 0) {
    return;
  }
  udp_by_lport_[pcb->lport].push_back(pcb);
}

void NetStack::UdpIndexRemove(UdpPcb* pcb) {
  if (pcb->lport == 0) {
    return;
  }
  auto bucket = udp_by_lport_.find(pcb->lport);
  if (bucket == udp_by_lport_.end()) {
    return;
  }
  std::erase(bucket->second, pcb);
  if (bucket->second.empty()) {
    udp_by_lport_.erase(bucket);
  }
}

UdpPcb* NetStack::UdpLookup(InetAddr dst, uint16_t dport) {
  // The lport bucket replaces the full PCB-list scan; the match rule
  // (exact laddr beats wildcard) is unchanged.
  auto bucket = udp_by_lport_.find(dport);
  if (bucket == udp_by_lport_.end()) {
    return nullptr;
  }
  UdpPcb* wildcard = nullptr;
  for (UdpPcb* pcb : bucket->second) {
    if (pcb->laddr == dst) {
      return pcb;
    }
    if (pcb->laddr.IsAny()) {
      wildcard = pcb;
    }
  }
  return wildcard;
}

void NetStack::UdpInput(const Ipv4Header& ip, MBuf* payload) {
  ++counters_.udp_in;
  payload = pool_.Pullup(payload, kUdpHeaderSize);
  if (payload == nullptr) {
    return;
  }
  UdpHeader uh;
  if (!UdpHeader::Parse(payload->data, payload->len, &uh) ||
      uh.length > payload->pkt_len) {
    pool_.FreeChain(payload);
    return;
  }
  if (uh.checksum != 0 &&
      TransportChecksum(ip.src, ip.dst, kIpProtoUdp, uh.length, payload) != 0) {
    ++counters_.udp_bad_checksum;
    pool_.FreeChain(payload);
    return;
  }
  UdpPcb* pcb = UdpLookup(ip.dst, uh.dst_port);
  if (pcb == nullptr) {
    ++counters_.udp_no_port;
    pool_.FreeChain(payload);
    return;  // a full implementation would send ICMP port-unreachable
  }
  if (pcb->connected &&
      (!(pcb->faddr == ip.src) || pcb->fport != uh.src_port)) {
    pool_.FreeChain(payload);
    return;
  }
  size_t data_len = uh.length - kUdpHeaderSize;
  if (pcb->rcv_bytes + data_len > pcb->rcv_hiwat) {
    pool_.FreeChain(payload);  // receive buffer full: drop, UDP style
    return;
  }
  // Per-principal mbuf charge at delivery: over budget drops the datagram
  // (counted net.rx.quota_shed), exactly like the hiwat drop above.
  if (!AcctChargeRx(pcb->socket, &pcb->rx_charged, &pcb->acct_tag, data_len)) {
    pool_.FreeChain(payload);
    return;
  }
  payload = pool_.TrimFront(payload, kUdpHeaderSize);
  pool_.TrimTo(payload, data_len);
  UdpPcb::Datagram dg;
  dg.from.addr = ip.src;
  dg.from.port = uh.src_port;
  dg.data = payload;
  pcb->rcv_queue.push_back(dg);
  pcb->rcv_bytes += data_len;
  sleep_wakeup_.Wakeup(&pcb->rcv_queue);
  SoNotify(pcb->socket);
}

Error NetStack::UdpOutput(UdpPcb* pcb, const SockAddr& to, MBuf* payload) {
  if (pcb->lport == 0) {
    pcb->lport = AllocEphemeralPort(/*tcp=*/false);
    if (pcb->lport == 0) {
      pool_.FreeChain(payload);
      return Error::kAddrNotAvail;  // ephemeral range spent, not mbufs
    }
    UdpIndexInsert(pcb);
  }
  size_t data_len = payload->pkt_len;
  size_t udp_len = data_len + kUdpHeaderSize;
  if (udp_len > 65535) {
    pool_.FreeChain(payload);
    return Error::kMsgSize;
  }

  InetAddr src = pcb->laddr;
  if (src.IsAny()) {
    InetAddr next_hop;
    int ifindex = RouteFor(to.addr, &next_hop);
    if (ifindex < 0) {
      pool_.FreeChain(payload);
      return Error::kNetUnreach;
    }
    src = ifaces_[ifindex].addr;
  }

  MBuf* dgram = pool_.Prepend(payload, kUdpHeaderSize);
  UdpHeader uh;
  uh.src_port = pcb->lport;
  uh.dst_port = to.port;
  uh.length = static_cast<uint16_t>(udp_len);
  uh.checksum = 0;
  uh.Serialize(dgram->data);

  // Checksum over pseudo-header + the whole chain (real per-byte work —
  // this is part of what the benchmarks measure).
  uint16_t sum = TransportChecksum(src, to.addr, kIpProtoUdp, uh.length, dgram);
  if (sum == 0) {
    sum = 0xffff;  // transmitted zero means "no checksum"
  }
  StoreBe16(dgram->data + 6, sum);

  ++counters_.udp_out;
  return IpOutput(kIpProtoUdp, src, to.addr, dgram);
}

}  // namespace oskit::net
