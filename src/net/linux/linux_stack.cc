#include "src/net/linux/linux_stack.h"

#include <cstring>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/panic.h"
#include "src/dev/linux/skbuff.h"

namespace oskit::net::linuxstack {

using linuxdev::dev_alloc_skb;
using linuxdev::kfree_skb;
using linuxdev::skb_pull;
using linuxdev::skb_push;
using linuxdev::skb_put;
using linuxdev::skb_reserve;

namespace {

constexpr int kRexmtTicks = 2;      // 1 s at the 500 ms tick
constexpr int kConnTicks = 60;      // 30 s
constexpr int kTimeWaitTicks = 8;

}  // namespace

// ---------------------------------------------------------------------------
// ChannelWait
// ---------------------------------------------------------------------------

void LinuxNetStack::ChannelWait::Sleep(const void* chan) {
  Waiter waiter(env_);
  waiter.chan = chan;
  waiter.next = head_;
  head_ = &waiter;
  waiter.record.Sleep();
  Waiter** link = &head_;
  while (*link != nullptr && *link != &waiter) {
    link = &(*link)->next;
  }
  OSKIT_ASSERT(*link == &waiter);
  *link = waiter.next;
}

void LinuxNetStack::ChannelWait::Wakeup(const void* chan) {
  for (Waiter* w = head_; w != nullptr; w = w->next) {
    if (w->chan == chan) {
      w->record.Wakeup();
    }
  }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

namespace {

void StackNetifRx(void* ctx, linux_device* /*dev*/, sk_buff* skb) {
  static_cast<LinuxNetStack*>(ctx)->NetifRx(skb);
}

}  // namespace

LinuxNetStack::LinuxNetStack(SleepEnv* sleep_env, SimClock* clock, linux_device* dev,
                             trace::TraceEnv* trace)
    : sleep_env_(sleep_env),
      clock_(clock),
      dev_(dev),
      sleep_(sleep_env),
      trace_(trace::ResolveTraceEnv(trace)) {
  trace_binding_.Bind(&trace_->registry,
                      {{"linux.ip.in", &counters_.ip_in},
                       {"linux.ip.out", &counters_.ip_out},
                       {"linux.tcp.in", &counters_.tcp_in},
                       {"linux.tcp.out", &counters_.tcp_out},
                       {"linux.tcp.retransmits", &counters_.tcp_retransmits},
                       {"linux.tcp.drops_ooo", &counters_.drops_ooo},
                       {"linux.arp.in", &counters_.arp_in}});
  dev_->netif_rx = &StackNetifRx;
  dev_->netif_rx_ctx = this;
  tick_event_ = clock_->ScheduleAfter(500 * kNsPerMs, [this] { SlowTick(); });
}

LinuxNetStack::~LinuxNetStack() {
  shutting_down_ = true;
  clock_->Cancel(tick_event_);
  dev_->netif_rx = nullptr;
  for (auto& pcb : pcbs_) {
    FlushPcb(pcb.get());
  }
  for (auto& [ip, entry] : arp_) {
    if (entry.pending != nullptr) {
      kfree_skb(dev_->kenv, entry.pending);
    }
  }
}

void LinuxNetStack::FlushPcb(LTcpPcb* pcb) {
  for (auto& seg : pcb->txq) {
    kfree_skb(dev_->kenv, seg.skb);
  }
  pcb->txq.clear();
  pcb->txq_bytes = 0;
  for (sk_buff* skb : pcb->rxq) {
    kfree_skb(dev_->kenv, skb);
  }
  pcb->rxq.clear();
  pcb->rxq_bytes = 0;
}

Error LinuxNetStack::IfConfig(InetAddr addr, InetAddr netmask) {
  addr_ = addr;
  netmask_ = netmask;
  configured_ = true;
  if (!dev_->opened) {
    dev_->open(dev_);
  }
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// Link layer in/out
// ---------------------------------------------------------------------------

void LinuxNetStack::NetifRx(sk_buff* skb) {
  if (skb->len < kEtherHeaderSize) {
    kfree_skb(dev_->kenv, skb);
    return;
  }
  EtherHeader eh = EtherHeader::Parse(skb->data);
  skb_pull(skb, kEtherHeaderSize);
  switch (eh.type) {
    case kEtherTypeArp:
      ArpInput(skb);
      break;
    case kEtherTypeIp:
      IpInput(skb);
      break;
    default:
      kfree_skb(dev_->kenv, skb);
      break;
  }
}

void LinuxNetStack::ArpInput(sk_buff* skb) {
  ++counters_.arp_in;
  ArpPacket arp;
  if (!ArpPacket::Parse(skb->data, skb->len, &arp)) {
    kfree_skb(dev_->kenv, skb);
    return;
  }
  kfree_skb(dev_->kenv, skb);

  ArpEntry& entry = arp_[arp.sender_ip.value];
  entry.mac = arp.sender_mac;
  entry.resolved = true;
  if (entry.pending != nullptr) {
    sk_buff* queued = entry.pending;
    entry.pending = nullptr;
    // Fill in the destination MAC we were waiting for and transmit.
    std::memcpy(queued->data, entry.mac.bytes, kEtherAddrSize);
    dev_->hard_start_xmit(queued, dev_);
  }

  if (arp.op == kArpOpRequest && configured_ && arp.target_ip == addr_) {
    sk_buff* reply = dev_alloc_skb(dev_->kenv, kEtherHeaderSize + kArpPacketSize);
    ArpPacket out;
    out.op = kArpOpReply;
    std::memcpy(out.sender_mac.bytes, dev_->dev_addr, 6);
    out.sender_ip = addr_;
    out.target_mac = arp.sender_mac;
    out.target_ip = arp.sender_ip;
    EtherHeader eh;
    eh.dst = arp.sender_mac;
    std::memcpy(eh.src.bytes, dev_->dev_addr, 6);
    eh.type = kEtherTypeArp;
    eh.Serialize(skb_put(reply, kEtherHeaderSize));
    out.Serialize(skb_put(reply, kArpPacketSize));
    dev_->hard_start_xmit(reply, dev_);
  }
}

void LinuxNetStack::ResolveAndSend(InetAddr next_hop, sk_buff* skb) {
  // `skb` starts at the Ethernet header with the destination MAC unset.
  ArpEntry& entry = arp_[next_hop.value];
  if (entry.resolved) {
    std::memcpy(skb->data, entry.mac.bytes, kEtherAddrSize);
    dev_->hard_start_xmit(skb, dev_);
    return;
  }
  if (entry.pending != nullptr) {
    kfree_skb(dev_->kenv, entry.pending);
  }
  entry.pending = skb;

  sk_buff* request = dev_alloc_skb(dev_->kenv, kEtherHeaderSize + kArpPacketSize);
  ArpPacket arp;
  arp.op = kArpOpRequest;
  std::memcpy(arp.sender_mac.bytes, dev_->dev_addr, 6);
  arp.sender_ip = addr_;
  arp.target_ip = next_hop;
  EtherHeader eh;
  eh.dst = kEtherBroadcast;
  std::memcpy(eh.src.bytes, dev_->dev_addr, 6);
  eh.type = kEtherTypeArp;
  eh.Serialize(skb_put(request, kEtherHeaderSize));
  arp.Serialize(skb_put(request, kArpPacketSize));
  dev_->hard_start_xmit(request, dev_);
}

// ---------------------------------------------------------------------------
// IP
// ---------------------------------------------------------------------------

void LinuxNetStack::IpInput(sk_buff* skb) {
  ++counters_.ip_in;
  Ipv4Header ip;
  if (!Ipv4Header::Parse(skb->data, skb->len, &ip) ||
      InetChecksumOf(skb->data, ip.header_len) != 0 || ip.total_len > skb->len) {
    kfree_skb(dev_->kenv, skb);
    return;
  }
  if (!(configured_ && (ip.dst == addr_ || ip.dst == kInetBroadcast))) {
    kfree_skb(dev_->kenv, skb);
    return;
  }
  if (ip.more_fragments() || ip.frag_offset_bytes() != 0) {
    kfree_skb(dev_->kenv, skb);  // baseline stack: no reassembly
    return;
  }
  // Trim link padding, then strip the IP header.
  skb->len = ip.total_len;
  skb->tail = skb->data + ip.total_len;
  skb_pull(skb, ip.header_len);
  if (ip.proto == kIpProtoTcp) {
    TcpInput(ip, skb);
    return;
  }
  kfree_skb(dev_->kenv, skb);
}

void LinuxNetStack::IpTcpOutput(InetAddr src, InetAddr dst, sk_buff* skb) {
  // skb->data currently points at the TCP header; push IP and Ethernet.
  ++counters_.ip_out;
  size_t tcp_len = skb->len;
  uint8_t* iph = skb_push(skb, kIpHeaderSize);
  Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(tcp_len + kIpHeaderSize);
  ip.ident = ip_ident_++;
  ip.frag = kIpFlagDontFragment;
  ip.proto = kIpProtoTcp;
  ip.src = src;
  ip.dst = dst;
  ip.Serialize(iph);

  uint8_t* eth = skb_push(skb, kEtherHeaderSize);
  EtherHeader eh;
  // Destination filled by ResolveAndSend.
  std::memcpy(eh.src.bytes, dev_->dev_addr, 6);
  eh.type = kEtherTypeIp;
  eh.Serialize(eth);

  InetAddr next_hop = dst;
  if (configured_ && (dst.value & netmask_.value) != (addr_.value & netmask_.value)) {
    // Baseline stack: direct subnet only (the benchmark LAN).
    next_hop = dst;
  }
  ResolveAndSend(next_hop, skb);
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

LTcpPcb* LinuxNetStack::Lookup(InetAddr src, uint16_t sport, InetAddr dst,
                               uint16_t dport) {
  LTcpPcb* listener = nullptr;
  for (auto& pcb : pcbs_) {
    if (pcb->lport != dport) {
      continue;
    }
    if (pcb->state == LTcpState::kListen) {
      listener = pcb.get();
      continue;
    }
    if (pcb->faddr == src && pcb->fport == sport) {
      return pcb.get();
    }
  }
  return listener;
}

uint16_t LinuxNetStack::AllocPort() {
  for (;;) {
    uint16_t port = next_port_++;
    if (next_port_ < 40000) {
      next_port_ = 40000;
    }
    bool taken = false;
    for (auto& pcb : pcbs_) {
      if (pcb->lport == port) {
        taken = true;
        break;
      }
    }
    if (!taken) {
      return port;
    }
  }
}

void LinuxNetStack::SendControl(LTcpPcb* pcb, uint8_t flags, bool with_mss) {
  ++counters_.tcp_out;
  size_t hdr = with_mss ? kTcpHeaderSize + 4 : kTcpHeaderSize;
  sk_buff* skb = dev_alloc_skb(dev_->kenv, kHeaderRoom);
  skb_reserve(skb, kHeaderRoom - hdr);
  TcpHeader th;
  th.src_port = pcb->lport;
  th.dst_port = pcb->fport;
  th.flags = flags;
  th.mss_option = pcb->mss;
  uint32_t seq;
  if ((flags & kTcpFlagSyn) != 0) {
    seq = pcb->iss;
  } else if ((flags & kTcpFlagFin) != 0) {
    seq = pcb->snd_nxt;
  } else {
    seq = pcb->snd_nxt;
  }
  th.seq = seq;
  th.ack = pcb->rcv_nxt;
  size_t space = pcb->rcv_hiwat > pcb->rxq_bytes ? pcb->rcv_hiwat - pcb->rxq_bytes : 0;
  th.window = static_cast<uint16_t>(space > 65535 ? 65535 : space);
  th.Serialize(skb_put(skb, hdr), with_mss);
  StoreBe16(skb->data + 16,
            TransportChecksum(pcb->laddr, pcb->faddr, kIpProtoTcp, hdr, skb->data));
  IpTcpOutput(pcb->laddr, pcb->faddr, skb);
}

void LinuxNetStack::TransmitSeg(LTcpPcb* pcb, LTcpPcb::TxSeg& seg) {
  ++counters_.tcp_out;
  // Write the headers into the owning skbuff's reserved headroom, then hand
  // the driver a fake clone sharing the data (Linux 2.0's skb_clone role):
  // the queued original stays for retransmission.
  sk_buff* skb = seg.skb;
  uint8_t* payload = skb->data;
  uint32_t payload_len = skb->len;

  uint8_t* th_bytes = skb_push(skb, kTcpHeaderSize);
  TcpHeader th;
  th.src_port = pcb->lport;
  th.dst_port = pcb->fport;
  th.seq = seg.seq;
  th.ack = pcb->rcv_nxt;
  th.flags = static_cast<uint8_t>(kTcpFlagAck | kTcpFlagPsh |
                                  (seg.fin ? kTcpFlagFin : 0));
  size_t space = pcb->rcv_hiwat > pcb->rxq_bytes ? pcb->rcv_hiwat - pcb->rxq_bytes : 0;
  th.window = static_cast<uint16_t>(space > 65535 ? 65535 : space);
  th.Serialize(th_bytes);
  StoreBe16(th_bytes + 16,
            TransportChecksum(pcb->laddr, pcb->faddr, kIpProtoTcp,
                              kTcpHeaderSize + payload_len, th_bytes));

  uint8_t* iph = skb_push(skb, kIpHeaderSize);
  Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(kIpHeaderSize + kTcpHeaderSize + payload_len);
  ip.ident = ip_ident_++;
  ip.frag = kIpFlagDontFragment;
  ip.proto = kIpProtoTcp;
  ip.src = pcb->laddr;
  ip.dst = pcb->faddr;
  ip.Serialize(iph);

  uint8_t* eth = skb_push(skb, kEtherHeaderSize);
  EtherHeader eh;
  std::memcpy(eh.src.bytes, dev_->dev_addr, 6);
  eh.type = kEtherTypeIp;
  eh.Serialize(eth);

  // Fake clone over the fully-built frame.
  sk_buff* clone = dev_alloc_skb(dev_->kenv, 0);
  clone->fake = true;
  clone->data = skb->data;
  clone->tail = skb->tail;
  clone->len = skb->len;

  // Restore the original to payload-only view for a later retransmit.
  skb_pull(skb, kEtherHeaderSize + kIpHeaderSize + kTcpHeaderSize);
  OSKIT_ASSERT(skb->data == payload && skb->len == payload_len);

  ArpEntry& entry = arp_[pcb->faddr.value];
  if (entry.resolved) {
    std::memcpy(clone->data, entry.mac.bytes, kEtherAddrSize);
    dev_->hard_start_xmit(clone, dev_);
  } else {
    // Unresolved: the pending slot owns a DEEP copy (the clone's data
    // lives in the retransmit queue and may be rewritten).
    sk_buff* copy = dev_alloc_skb(dev_->kenv, clone->len);
    std::memcpy(skb_put(copy, clone->len), clone->data, clone->len);
    kfree_skb(dev_->kenv, clone);
    ResolveAndSend(pcb->faddr, copy);
    return;
  }
  seg.transmitted = true;
  if (pcb->rexmt_ticks == 0) {
    pcb->rexmt_ticks = kRexmtTicks;
  }
}

void LinuxNetStack::TcpTrySend(LTcpPcb* pcb) {
  uint32_t wnd_edge = pcb->snd_una + pcb->snd_wnd;
  for (auto& seg : pcb->txq) {
    if (seg.transmitted) {
      continue;
    }
    if (SeqGt(seg.seq + seg.len, wnd_edge)) {
      break;  // window closed
    }
    TransmitSeg(pcb, seg);
  }
}

void LinuxNetStack::TcpInput(const Ipv4Header& ip, sk_buff* skb) {
  ++counters_.tcp_in;
  TcpHeader th;
  if (!TcpHeader::Parse(skb->data, skb->len, &th)) {
    kfree_skb(dev_->kenv, skb);
    return;
  }
  if (TransportChecksum(ip.src, ip.dst, kIpProtoTcp, skb->len, skb->data) != 0) {
    kfree_skb(dev_->kenv, skb);
    return;
  }
  skb_pull(skb, th.data_off);
  uint32_t data_len = skb->len;

  LTcpPcb* pcb = Lookup(ip.src, th.src_port, ip.dst, th.dst_port);
  if (pcb == nullptr) {
    kfree_skb(dev_->kenv, skb);
    return;  // baseline: silently drop (no RST generation)
  }

  // LISTEN: passive open.
  if (pcb->state == LTcpState::kListen) {
    if ((th.flags & kTcpFlagSyn) == 0 || (th.flags & kTcpFlagAck) != 0) {
      kfree_skb(dev_->kenv, skb);
      return;
    }
    auto child = std::make_unique<LTcpPcb>();
    child->laddr = ip.dst;
    child->lport = th.dst_port;
    child->faddr = ip.src;
    child->fport = th.src_port;
    child->listener = pcb;
    child->iss = iss_counter_ += 32000;
    child->snd_una = child->iss;
    child->snd_nxt = child->iss + 1;
    child->irs = th.seq;
    child->rcv_nxt = th.seq + 1;
    child->snd_wnd = th.window;
    if (th.mss_option != 0 && th.mss_option < child->mss) {
      child->mss = th.mss_option;
    }
    child->state = LTcpState::kSynReceived;
    child->conn_ticks = kConnTicks;
    LTcpPcb* raw = child.get();
    pcbs_.push_back(std::move(child));
    SendControl(raw, kTcpFlagSyn | kTcpFlagAck, /*with_mss=*/true);
    kfree_skb(dev_->kenv, skb);
    return;
  }

  if ((th.flags & kTcpFlagRst) != 0) {
    pcb->so_error = Error::kConnReset;
    pcb->state = LTcpState::kClosed;
    Wake(&pcb->rxq);
    Wake(&pcb->txq);
    PcbFreeIfDone(pcb);
    kfree_skb(dev_->kenv, skb);
    return;
  }

  if (pcb->state == LTcpState::kSynSent) {
    if ((th.flags & (kTcpFlagSyn | kTcpFlagAck)) != (kTcpFlagSyn | kTcpFlagAck) ||
        th.ack != pcb->iss + 1) {
      kfree_skb(dev_->kenv, skb);
      return;
    }
    pcb->irs = th.seq;
    pcb->rcv_nxt = th.seq + 1;
    pcb->snd_una = th.ack;
    pcb->snd_wnd = th.window;
    if (th.mss_option != 0 && th.mss_option < pcb->mss) {
      pcb->mss = th.mss_option;
    }
    pcb->state = LTcpState::kEstablished;
    pcb->conn_ticks = 0;
    pcb->rexmt_ticks = 0;
    SendControl(pcb, kTcpFlagAck, false);
    Wake(&pcb->rxq);
    kfree_skb(dev_->kenv, skb);
    return;
  }

  // ACK processing.
  if ((th.flags & kTcpFlagAck) != 0) {
    pcb->snd_wnd = th.window;
    if (SeqGt(th.ack, pcb->snd_una)) {
      pcb->snd_una = th.ack;
      // Pop fully-acknowledged segments.
      while (!pcb->txq.empty()) {
        LTcpPcb::TxSeg& head = pcb->txq.front();
        uint32_t seg_end = head.seq + head.len + (head.fin ? 1 : 0);
        if (SeqGt(seg_end, pcb->snd_una)) {
          break;
        }
        pcb->txq_bytes -= head.len;
        kfree_skb(dev_->kenv, head.skb);
        pcb->txq.pop_front();
      }
      pcb->rexmt_ticks = pcb->txq.empty() ? 0 : kRexmtTicks;
      Wake(&pcb->txq);

      if (pcb->state == LTcpState::kSynReceived) {
        pcb->state = LTcpState::kEstablished;
        pcb->conn_ticks = 0;
        if (pcb->listener != nullptr) {
          pcb->listener->accept_queue.push_back(pcb);
          Wake(&pcb->listener->accept_queue);
        }
      }
      if (pcb->fin_queued && !pcb->fin_acked && pcb->txq.empty() &&
          SeqGeq(pcb->snd_una, pcb->snd_nxt + 1)) {
        pcb->fin_acked = true;
        switch (pcb->state) {
          case LTcpState::kFinWait1:
            pcb->state = pcb->peer_fin_seen ? LTcpState::kTimeWait
                                            : LTcpState::kFinWait2;
            if (pcb->state == LTcpState::kTimeWait) {
              pcb->time_wait_ticks = kTimeWaitTicks;
            }
            break;
          case LTcpState::kClosing:
            pcb->state = LTcpState::kTimeWait;
            pcb->time_wait_ticks = kTimeWaitTicks;
            break;
          case LTcpState::kLastAck:
            pcb->state = LTcpState::kClosed;
            PcbFreeIfDone(pcb);
            kfree_skb(dev_->kenv, skb);
            return;
          default:
            break;
        }
        Wake(&pcb->rxq);
      }
    }
  }

  // Data: in-order only; out-of-order is dropped and recovered by
  // retransmission (documented baseline simplification).
  bool advanced = false;
  if (data_len > 0) {
    if (th.seq == pcb->rcv_nxt &&
        (pcb->state == LTcpState::kEstablished ||
         pcb->state == LTcpState::kFinWait1 || pcb->state == LTcpState::kFinWait2) &&
        pcb->rxq_bytes + data_len <= pcb->rcv_hiwat) {
      pcb->rxq.push_back(skb);
      pcb->rxq_bytes += data_len;
      pcb->rcv_nxt += data_len;
      advanced = true;
      skb = nullptr;
      Wake(&pcb->rxq);
    } else if (SeqLt(th.seq, pcb->rcv_nxt) &&
               SeqLeq(th.seq + data_len, pcb->rcv_nxt)) {
      // Entirely old duplicate: just re-ACK below.
    } else {
      ++counters_.drops_ooo;
    }
  }

  // FIN.
  uint32_t fin_seq = th.seq + data_len;
  if ((th.flags & kTcpFlagFin) != 0 && !pcb->peer_fin_seen &&
      fin_seq == pcb->rcv_nxt) {
    pcb->peer_fin_seen = true;
    pcb->rcv_nxt += 1;
    advanced = true;
    switch (pcb->state) {
      case LTcpState::kEstablished:
        pcb->state = LTcpState::kCloseWait;
        break;
      case LTcpState::kFinWait1:
        pcb->state = LTcpState::kClosing;
        break;
      case LTcpState::kFinWait2:
        pcb->state = LTcpState::kTimeWait;
        pcb->time_wait_ticks = kTimeWaitTicks;
        break;
      default:
        break;
    }
    Wake(&pcb->rxq);
  }

  if (skb != nullptr) {
    kfree_skb(dev_->kenv, skb);
  }

  if (advanced || data_len > 0) {
    SendControl(pcb, kTcpFlagAck, false);  // Linux 2.0 acked eagerly
  }
  TcpTrySend(pcb);
}

void LinuxNetStack::SlowTick() {
  if (shutting_down_) {
    return;
  }
  std::vector<LTcpPcb*> snapshot;
  for (auto& pcb : pcbs_) {
    snapshot.push_back(pcb.get());
  }
  for (LTcpPcb* pcb : snapshot) {
    bool alive = false;
    for (auto& p : pcbs_) {
      if (p.get() == pcb) {
        alive = true;
        break;
      }
    }
    if (!alive) {
      continue;
    }
    if (pcb->conn_ticks > 0 && --pcb->conn_ticks == 0) {
      pcb->so_error = Error::kTimedOut;
      pcb->state = LTcpState::kClosed;
      Wake(&pcb->rxq);
      Wake(&pcb->txq);
      PcbFreeIfDone(pcb);
      continue;
    }
    if (pcb->rexmt_ticks > 0 && --pcb->rexmt_ticks == 0) {
      ++counters_.tcp_retransmits;
      if (pcb->state == LTcpState::kSynSent) {
        SendControl(pcb, kTcpFlagSyn, /*with_mss=*/true);
        pcb->rexmt_ticks = kRexmtTicks;
      } else if (pcb->state == LTcpState::kSynReceived) {
        SendControl(pcb, kTcpFlagSyn | kTcpFlagAck, /*with_mss=*/true);
        pcb->rexmt_ticks = kRexmtTicks;
      } else {
        // Go-back-N: mark everything unsent and pump the window again.
        for (auto& seg : pcb->txq) {
          seg.transmitted = false;
        }
        TcpTrySend(pcb);
        if (pcb->fin_queued && !pcb->fin_acked && pcb->txq.empty()) {
          SendControl(pcb, kTcpFlagFin | kTcpFlagAck, false);
        }
        pcb->rexmt_ticks = kRexmtTicks;
      }
    }
    if (pcb->state == LTcpState::kTimeWait && --pcb->time_wait_ticks <= 0) {
      pcb->state = LTcpState::kClosed;
      PcbFreeIfDone(pcb);
    }
  }
  tick_event_ = clock_->ScheduleAfter(500 * kNsPerMs, [this] { SlowTick(); });
}

void LinuxNetStack::PcbFreeIfDone(LTcpPcb* pcb) {
  if (!pcb->detached || pcb->state != LTcpState::kClosed) {
    return;
  }
  FlushPcb(pcb);
  for (auto it = pcbs_.begin(); it != pcbs_.end(); ++it) {
    if (it->get() == pcb) {
      pcbs_.erase(it);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Socket layer
// ---------------------------------------------------------------------------

Error LinuxNetStack::SoBind(LTcpPcb* pcb, const SockAddr& addr) {
  for (auto& other : pcbs_) {
    if (other.get() != pcb && other->lport == addr.port) {
      return Error::kAddrInUse;
    }
  }
  pcb->laddr = addr.addr.IsAny() ? addr_ : addr.addr;
  pcb->lport = addr.port;
  return Error::kOk;
}

Error LinuxNetStack::SoConnect(LTcpPcb* pcb, const SockAddr& addr) {
  if (pcb->state != LTcpState::kClosed) {
    return Error::kIsConn;
  }
  if (pcb->lport == 0) {
    pcb->lport = AllocPort();
  }
  pcb->laddr = addr_;
  pcb->faddr = addr.addr;
  pcb->fport = addr.port;
  pcb->iss = iss_counter_ += 32000;
  pcb->snd_una = pcb->iss;
  pcb->snd_nxt = pcb->iss + 1;
  pcb->state = LTcpState::kSynSent;
  pcb->conn_ticks = kConnTicks;
  pcb->rexmt_ticks = kRexmtTicks;
  SendControl(pcb, kTcpFlagSyn, /*with_mss=*/true);
  while (pcb->state == LTcpState::kSynSent || pcb->state == LTcpState::kSynReceived) {
    Block(&pcb->rxq);
  }
  if (pcb->state != LTcpState::kEstablished) {
    return Ok(pcb->so_error) ? Error::kConnRefused : pcb->so_error;
  }
  return Error::kOk;
}

Error LinuxNetStack::SoListen(LTcpPcb* pcb, int backlog) {
  if (pcb->lport == 0) {
    return Error::kInval;
  }
  pcb->laddr = addr_;
  pcb->backlog = backlog < 1 ? 1 : backlog;
  pcb->state = LTcpState::kListen;
  return Error::kOk;
}

Error LinuxNetStack::SoAccept(LTcpPcb* pcb, SockAddr* out_peer, LTcpPcb** out_child) {
  while (pcb->accept_queue.empty()) {
    if (pcb->state != LTcpState::kListen) {
      return Error::kAborted;
    }
    Block(&pcb->accept_queue);
  }
  LTcpPcb* child = pcb->accept_queue.front();
  pcb->accept_queue.pop_front();
  child->listener = nullptr;
  out_peer->addr = child->faddr;
  out_peer->port = child->fport;
  *out_child = child;
  return Error::kOk;
}

Error LinuxNetStack::SoSend(LTcpPcb* pcb, const void* buf, size_t len,
                            size_t* out_actual) {
  *out_actual = 0;
  const auto* in = static_cast<const uint8_t*>(buf);
  size_t sent = 0;
  while (sent < len) {
    if (pcb->state != LTcpState::kEstablished && pcb->state != LTcpState::kCloseWait) {
      if (sent > 0) {
        break;
      }
      return Ok(pcb->so_error) ? Error::kPipe : pcb->so_error;
    }
    if (pcb->txq_bytes >= pcb->snd_hiwat) {
      Block(&pcb->txq);
      continue;
    }
    size_t n = len - sent;
    if (n > pcb->mss) {
      n = pcb->mss;
    }
    // The single user-to-kernel copy into a contiguous skbuff with header
    // room already reserved (tcp_do_sendmsg).
    sk_buff* skb = dev_alloc_skb(dev_->kenv, kHeaderRoom + n);
    if (skb == nullptr) {
      return Error::kNoMem;
    }
    skb_reserve(skb, kHeaderRoom);
    std::memcpy(skb_put(skb, n), in + sent, n);
    LTcpPcb::TxSeg seg;
    seg.skb = skb;
    seg.seq = pcb->snd_nxt;
    seg.len = static_cast<uint32_t>(n);
    pcb->snd_nxt += static_cast<uint32_t>(n);
    pcb->txq.push_back(seg);
    pcb->txq_bytes += n;
    sent += n;
    TcpTrySend(pcb);
  }
  *out_actual = sent;
  return Error::kOk;
}

Error LinuxNetStack::SoRecv(LTcpPcb* pcb, void* buf, size_t len, size_t* out_actual) {
  *out_actual = 0;
  for (;;) {
    if (pcb->rxq_bytes > 0) {
      break;
    }
    if (pcb->peer_fin_seen || pcb->state == LTcpState::kClosed) {
      return Ok(pcb->so_error) ? Error::kOk : pcb->so_error;  // EOF
    }
    Block(&pcb->rxq);
  }
  auto* out = static_cast<uint8_t*>(buf);
  size_t copied = 0;
  while (copied < len && !pcb->rxq.empty()) {
    sk_buff* head = pcb->rxq.front();
    size_t available = head->len - pcb->rx_consumed_in_head;
    size_t n = available < len - copied ? available : len - copied;
    std::memcpy(out + copied, head->data + pcb->rx_consumed_in_head, n);
    copied += n;
    pcb->rx_consumed_in_head += n;
    if (pcb->rx_consumed_in_head == head->len) {
      kfree_skb(dev_->kenv, head);
      pcb->rxq.pop_front();
      pcb->rx_consumed_in_head = 0;
    }
  }
  pcb->rxq_bytes -= copied;
  *out_actual = copied;
  if (copied >= 2u * pcb->mss) {
    SendControl(pcb, kTcpFlagAck, false);  // window update
  }
  return Error::kOk;
}

Error LinuxNetStack::SoShutdown(LTcpPcb* pcb) {
  if (pcb->fin_queued) {
    return Error::kOk;
  }
  switch (pcb->state) {
    case LTcpState::kEstablished:
      pcb->fin_queued = true;
      pcb->state = LTcpState::kFinWait1;
      break;
    case LTcpState::kCloseWait:
      pcb->fin_queued = true;
      pcb->state = LTcpState::kLastAck;
      break;
    case LTcpState::kSynSent:
    case LTcpState::kListen:
      pcb->state = LTcpState::kClosed;
      return Error::kOk;
    default:
      return Error::kOk;
  }
  if (pcb->txq.empty()) {
    SendControl(pcb, kTcpFlagFin | kTcpFlagAck, false);
    pcb->rexmt_ticks = kRexmtTicks;
  } else {
    pcb->txq.back().fin = true;
    pcb->txq.back().transmitted = false;
    TcpTrySend(pcb);
  }
  return Error::kOk;
}

void LinuxNetStack::SoDetach(LTcpPcb* pcb) {
  pcb->detached = true;
  if (pcb->state == LTcpState::kListen) {
    for (LTcpPcb* child : pcb->accept_queue) {
      child->detached = true;
      child->listener = nullptr;
    }
    pcb->accept_queue.clear();
    pcb->state = LTcpState::kClosed;
  } else if (pcb->state != LTcpState::kClosed) {
    SoShutdown(pcb);
  }
  PcbFreeIfDone(pcb);
}

// ---------------------------------------------------------------------------
// COM socket + factory
// ---------------------------------------------------------------------------

namespace {

class LinuxSocket final : public ComObject<LinuxSocket, Socket> {
 public:
  LinuxSocket(LinuxNetStack* stack, LTcpPcb* pcb) : stack_(stack), pcb_(pcb) {}

  void OnLastRelease() {
    if (pcb_ != nullptr) {
      stack_->SoDetach(pcb_);
      pcb_ = nullptr;
    }
  }

  Error Bind(const SockAddr& addr) override { return stack_->SoBind(pcb_, addr); }
  Error Connect(const SockAddr& addr) override { return stack_->SoConnect(pcb_, addr); }
  Error Listen(int backlog) override { return stack_->SoListen(pcb_, backlog); }

  Error Accept(SockAddr* out_peer, Socket** out_socket) override {
    LTcpPcb* child = nullptr;
    Error err = stack_->SoAccept(pcb_, out_peer, &child);
    if (!Ok(err)) {
      return err;
    }
    *out_socket = new LinuxSocket(stack_, child);
    return Error::kOk;
  }

  Error Send(const void* buf, size_t amount, size_t* out_actual) override {
    return stack_->SoSend(pcb_, buf, amount, out_actual);
  }
  Error Recv(void* buf, size_t amount, size_t* out_actual) override {
    return stack_->SoRecv(pcb_, buf, amount, out_actual);
  }
  Error SendTo(const void*, size_t, const SockAddr&, size_t* out_actual) override {
    *out_actual = 0;
    return Error::kNotImpl;
  }
  Error RecvFrom(void*, size_t, SockAddr*, size_t* out_actual) override {
    *out_actual = 0;
    return Error::kNotImpl;
  }
  Error Shutdown(SockShutdown how) override {
    if (how == SockShutdown::kRead) {
      return Error::kOk;
    }
    return stack_->SoShutdown(pcb_);
  }
  Error GetSockName(SockAddr* out_addr) override {
    out_addr->addr = pcb_->laddr;
    out_addr->port = pcb_->lport;
    return Error::kOk;
  }
  Error GetPeerName(SockAddr* out_addr) override {
    if (pcb_->state != LTcpState::kEstablished) {
      return Error::kNotConn;
    }
    out_addr->addr = pcb_->faddr;
    out_addr->port = pcb_->fport;
    return Error::kOk;
  }

 private:
  friend class RefCounted<LinuxSocket>;
  ~LinuxSocket() = default;

  LinuxNetStack* stack_;
  LTcpPcb* pcb_;
};

class LinuxSocketFactory final
    : public ComObject<LinuxSocketFactory, SocketFactory> {
 public:
  explicit LinuxSocketFactory(LinuxNetStack* stack) : stack_(stack) {}

  Error Create(SockDomain domain, SockType type, Socket** out_socket) override {
    *out_socket = nullptr;
    if (domain != SockDomain::kInet || type != SockType::kStream) {
      return Error::kProtoNoSupport;  // baseline stack: TCP only
    }
    *out_socket = stack_->MakeSocket();
    return Error::kOk;
  }

 private:
  friend class RefCounted<LinuxSocketFactory>;
  ~LinuxSocketFactory() = default;

  LinuxNetStack* stack_;
};

}  // namespace

Socket* LinuxNetStack::MakeSocket() {
  auto pcb = std::make_unique<LTcpPcb>();
  LTcpPcb* raw = pcb.get();
  pcbs_.push_back(std::move(pcb));
  return new LinuxSocket(this, raw);
}

ComPtr<SocketFactory> LinuxNetStack::CreateSocketFactory() {
  return ComPtr<SocketFactory>(new LinuxSocketFactory(this));
}

}  // namespace oskit::net::linuxstack
