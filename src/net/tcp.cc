// TCP: connection state machine, sliding-window transmission with
// congestion control, RTT estimation, retransmission, reassembly, and the
// connection timers on the stack's timer wheel.

#include <algorithm>
#include <cstring>

#include "src/base/panic.h"
#include "src/net/stack.h"

namespace oskit::net {

namespace {

constexpr int kMaxRexmtShift = 12;
constexpr int kTimeWaitTicks = 8;        // 2*MSL at 500 ms/tick (shortened MSL)
constexpr int kConnTimeoutTicks = 60;    // 30 s to establish
constexpr uint32_t kMaxWindow = 65535;

// Records that `conn` sits at `at` in its local-port bucket.
void SetLportSlot(TcpConnRef conn, size_t at) {
  conn.ends().lport_slot =
      static_cast<uint16_t>(std::min<size_t>(at, TcpEndpoints::kNoSlot));
}

// Where `conn` sits in its local-port bucket `held` (searched for when the
// slot is not recorded), or held.size() if it is not there.
size_t LportSlot(const std::vector<TcpConnRef>& held, TcpConnRef conn) {
  size_t at = conn.ends().lport_slot;
  return at != TcpEndpoints::kNoSlot ? at
                                     : std::ranges::find(held, conn) - held.begin();
}

// Clips a segment's data [*seq, *seq + *len) to the receive window
// [rcv_nxt, rcv_nxt + wnd).  Returns true when the data lay wholly before
// or wholly past the window: nothing is left, and the receiver ACKs.
bool ClipToWindow(uint32_t rcv_nxt, uint32_t wnd, uint32_t* seq, size_t* len) {
  if (*len == 0) {
    return false;
  }
  if (SeqLt(*seq, rcv_nxt)) {
    uint32_t overlap = rcv_nxt - *seq;
    if (overlap >= *len) {
      *len = 0;
      return true;
    }
    *seq += overlap;
    *len -= overlap;
  }
  uint32_t edge = rcv_nxt + wnd;
  if (SeqGt(*seq + static_cast<uint32_t>(*len), edge)) {
    if (!SeqGt(edge, *seq)) {
      *len = 0;
      return true;
    }
    *len = edge - *seq;
  }
  return false;
}

}  // namespace

const char* TcpStateName(TcpState s) {
  // In TcpState's order.
  static constexpr const char* kNames[] = {
      "CLOSED",     "LISTEN",     "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
      "CLOSE_WAIT", "FIN_WAIT_1", "FIN_WAIT_2", "CLOSING", "LAST_ACK",
      "TIME_WAIT"};
  static_assert(std::size(kNames) == static_cast<size_t>(TcpState::kTimeWait) + 1);
  auto i = static_cast<size_t>(s);
  return i < std::size(kNames) ? kNames[i] : "?";
}

uint16_t NetStack::AllocEphemeralPort(bool tcp) {
  // O(1) per candidate: the rotating hint plus a hash-bucket probe replaces
  // the old full-PCB-list scan per try.  The rotation order (and therefore
  // the ports handed out) is unchanged.
  for (int tries = 0; tries < 16384; ++tries) {
    uint16_t port = next_ephemeral_++;
    if (next_ephemeral_ == 0) {
      next_ephemeral_ = 49152;
    }
    if (port < 49152) {
      continue;
    }
    bool taken = tcp ? tcp_by_lport_.count(port) != 0
                     : udp_by_lport_.count(port) != 0;
    if (!taken) {
      return port;
    }
  }
  // Port space exhausted: a resource failure the socket layer surfaces as
  // kNoBufs, not a reason to bring the kernel down.
  ++counters_.port_exhausted;
  return 0;
}

// ---------------------------------------------------------------------------
// PCB lookup indices
// ---------------------------------------------------------------------------

void NetStack::TcpIndexInsert(TcpPcb* pcb) {
  if (pcb->lport == 0) {
    return;
  }
  std::vector<TcpConnRef>& bucket = tcp_by_lport_[pcb->lport];
  SetLportSlot(pcb, bucket.size());
  bucket.push_back(pcb);
  if (pcb->fport != 0 || pcb->faddr.value != 0) {
    // First insert wins on a key collision; the shadowed pcb is still
    // reachable through the lport bucket fallback.
    tcp_conn_.emplace(MakeTcpKey(pcb->laddr, pcb->lport, pcb->faddr, pcb->fport),
                      pcb);
  }
}

void NetStack::TcpIndexRemove(TcpConnRef conn) {
  TcpEndpoints& ends = conn.ends();
  if (ends.lport == 0) {
    return;
  }
  auto bucket = tcp_by_lport_.find(ends.lport);
  if (bucket != tcp_by_lport_.end()) {
    std::vector<TcpConnRef>& held = bucket->second;
    if (size_t at = LportSlot(held, conn); at < held.size()) {
      // Swap-remove: nothing depends on the order inside a bucket.
      OSKIT_ASSERT(held[at] == conn);
      held[at] = held.back();
      SetLportSlot(held[at], at);
      held.pop_back();
      ends.lport_slot = TcpEndpoints::kNoSlot;
    }
    if (held.empty()) {
      tcp_by_lport_.erase(bucket);  // keep count() meaning "port in use"
    }
  }
  auto keyed = tcp_conn_.find(
      MakeTcpKey(ends.laddr, ends.lport, ends.faddr, ends.fport));
  if (keyed != tcp_conn_.end() && keyed->second == conn) {
    tcp_conn_.erase(keyed);
  }
  TcpPcb* pcb = conn.pcb();
  if (pcb == nullptr) {
    return;  // a record is never a listener
  }
  auto lis = tcp_listeners_.find(pcb->lport);
  if (lis != tcp_listeners_.end()) {
    std::erase(lis->second, pcb);
    if (lis->second.empty()) {
      tcp_listeners_.erase(lis);
    }
  }
}

uint32_t NetStack::NextIss() {
  iss_counter_ += 64000;
  return iss_counter_;
}

TcpConnRef NetStack::TcpLookup(InetAddr src, uint16_t sport, InetAddr dst,
                               uint16_t dport) {
  // Exact 4-tuple hit first: the established-connection hot path, and the
  // only way to a TIME_WAIT record (one always owns its key).
  auto conn = tcp_conn_.find(MakeTcpKey(dst, dport, src, sport));
  if (conn != tcp_conn_.end() &&
      (conn->second.pcb() == nullptr ||
       conn->second.pcb()->state != TcpState::kListen)) {
    ++counters_.pcb_hash_hits;
    return conn->second;
  }
  ++counters_.pcb_hash_misses;
  // A miss is almost always a SYN (or a stray segment) for a listening
  // port: resolve it through the listeners-only index, which is O(listeners
  // on that port), NOT O(connections sharing it) like the lport bucket —
  // the server's port bucket holds every accepted child.  Among listeners
  // that match, the last bound wins.
  TcpPcb* listener = nullptr;
  auto lis = tcp_listeners_.find(dport);
  if (lis != tcp_listeners_.end()) {
    for (TcpPcb* pcb : lis->second) {
      if (pcb->laddr.IsAny() || pcb->laddr == dst) {
        listener = pcb;
      }
    }
  }
  if (listener != nullptr) {
    return listener;
  }
  // No listener either: defensive full bucket walk for pcbs the exact map
  // cannot see (a wildcard-bound connection, or one shadowed by a key
  // collision).  Neither arises by construction — connect and accept both
  // pin laddr before indexing, and the ephemeral allocator never reissues a
  // port with any live pcb — so this is a correctness backstop, and the
  // bucket it scans (a client-side ephemeral port) holds one or two pcbs.
  auto bucket = tcp_by_lport_.find(dport);
  if (bucket != tcp_by_lport_.end()) {
    for (TcpConnRef held : bucket->second) {
      TcpPcb* pcb = held.pcb();
      if (pcb == nullptr || pcb->state == TcpState::kListen) {
        continue;
      }
      if (pcb->faddr == src && pcb->fport == sport &&
          (pcb->laddr == dst || pcb->laddr.IsAny())) {
        return pcb;
      }
    }
  }
  return {};
}

uint32_t NetStack::TcpReceiveWindow(const TcpPcb* pcb) const {
  size_t space = pcb->rcv.Space();
  return space > kMaxWindow ? kMaxWindow : static_cast<uint32_t>(space);
}

void NetStack::TcpSetState(TcpPcb* pcb, TcpState next) {
  // The ESTABLISHED gauge (and its high-water mark) is what the C10k bench
  // reads for "concurrently open connections".  Every transition into or
  // out of kEstablished funnels through here.
  if (next == TcpState::kEstablished && pcb->state != TcpState::kEstablished) {
    ++counters_.tcp_established;
    if (counters_.tcp_established.value() >
        counters_.tcp_established_peak.value()) {
      counters_.tcp_established_peak.Set(counters_.tcp_established.value());
    }
  } else if (pcb->state == TcpState::kEstablished &&
             next != TcpState::kEstablished) {
    counters_.tcp_established -= 1;
  }
  pcb->state = next;
  if (next == TcpState::kTimeWait) {
    WheelArmSlow(&pcb->time_wait_wheel, kTimeWaitTicks);
    wheel_.Cancel(&pcb->rexmt_wheel);
    wheel_.Cancel(&pcb->persist_wheel);
  }
  // State changes are interesting to both directions of any blocked caller.
  sleep_wakeup_.Wakeup(&pcb->rcv);
  sleep_wakeup_.Wakeup(&pcb->snd);
  SoNotify(pcb->socket);
}

// ---------------------------------------------------------------------------
// Segment transmission
// ---------------------------------------------------------------------------

void NetStack::TcpSendSegment(TcpPcb* pcb, uint32_t seq, uint8_t flags,
                              const MBuf* data_src, size_t data_off, size_t data_len,
                              bool with_mss) {
  size_t header_len = with_mss ? kTcpHeaderSize + 4 : kTcpHeaderSize;
  MBuf* segment;
  if (data_len > 0) {
    // Reference the send buffer's storage rather than copying it: this is
    // why outgoing BSD packets are discontiguous chains (§5) — a header
    // mbuf followed by cluster references.  Prepend allocates the header
    // mbuf with maximal headroom, so the IP and Ethernet headers prepended
    // below it land in this same reserved leading mbuf and the chain's
    // shape never changes on the way to the driver — the contract the
    // scatter-gather transmit path relies on.
    segment = pool_.CopyChain(data_src, data_off, data_len);
    segment = pool_.Prepend(segment, header_len);
  } else {
    segment = pool_.GetHeaderAligned(header_len);
  }

  ++counters_.tcp_out;
  pcb->delayed_ack = false;
  TcpEmit(*pcb, seq, (flags & kTcpFlagAck) != 0 ? pcb->rcv_nxt : 0, flags,
          static_cast<uint16_t>(TcpReceiveWindow(pcb)), segment,
          with_mss ? pcb->mss : 0);
}

void NetStack::TcpEmit(const TcpEndpoints& ends, uint32_t seq, uint32_t ack,
                       uint8_t flags, uint16_t window, MBuf* segment,
                       uint16_t mss) {
  TcpHeader th;
  th.src_port = ends.lport;
  th.dst_port = ends.fport;
  th.seq = seq;
  th.ack = ack;
  th.flags = flags;
  th.window = window;
  th.mss_option = mss;
  th.Serialize(segment->data, mss != 0);
  StoreBe16(segment->data + 16,
            TransportChecksum(ends.laddr, ends.faddr, kIpProtoTcp,
                              static_cast<uint16_t>(segment->pkt_len), segment));
  IpOutput(kIpProtoTcp, ends.laddr, ends.faddr, segment);
}

void NetStack::TcpSendRst(const Ipv4Header& ip, const TcpHeader& th,
                          size_t payload_len) {
  if ((th.flags & kTcpFlagRst) != 0) {
    return;  // never answer a RST with a RST
  }
  ++counters_.tcp_rst_out;
  const TcpEndpoints reply{ip.dst, ip.src, th.dst_port, th.src_port};
  MBuf* segment = pool_.GetHeaderAligned(kTcpHeaderSize);
  if ((th.flags & kTcpFlagAck) != 0) {
    TcpEmit(reply, th.ack, 0, kTcpFlagRst, 0, segment, 0);
    return;
  }
  uint32_t seg_len = static_cast<uint32_t>(payload_len) +
                     ((th.flags & kTcpFlagSyn) != 0 ? 1 : 0) +
                     ((th.flags & kTcpFlagFin) != 0 ? 1 : 0);
  TcpEmit(reply, 0, th.seq + seg_len, kTcpFlagRst | kTcpFlagAck, 0, segment, 0);
}

void NetStack::TcpOutput(TcpPcb* pcb, bool force_ack) {
  for (;;) {
    if (pcb->state == TcpState::kSynSent || pcb->state == TcpState::kListen ||
        pcb->state == TcpState::kClosed) {
      break;
    }
    uint32_t off = pcb->snd_nxt - pcb->snd_una;
    uint32_t wnd = pcb->snd_wnd < pcb->snd_cwnd ? pcb->snd_wnd : pcb->snd_cwnd;
    uint32_t in_buf = static_cast<uint32_t>(pcb->snd.cc);
    uint32_t available = off < in_buf ? in_buf - off : 0;
    uint32_t usable = wnd > off ? wnd - off : 0;
    uint32_t len = available < usable ? available : usable;
    if (len > pcb->mss) {
      len = pcb->mss;
    }

    bool send_fin = pcb->fin_queued && off + len == in_buf &&
                    SeqLeq(pcb->snd_nxt + len, pcb->snd_una + in_buf + 1) &&
                    !pcb->fin_sent;
    // The FIN consumes sequence space; only send it when the window allows
    // at least the FIN itself.
    if (send_fin && len == available && usable < len + 1 && in_buf != 0 && usable == len) {
      // Window exactly full of data: FIN goes in a later segment.
      send_fin = usable > len;
    }

    if (len == 0 && !send_fin && !force_ack && !pcb->delayed_ack) {
      break;
    }
    if (len == 0 && !send_fin && available > 0 && usable == 0 && !force_ack) {
      // Zero window: let the persist timer probe.
      if (!pcb->persist_wheel.armed()) {
        WheelArmSlow(&pcb->persist_wheel, pcb->RtoTicks());
      }
      break;
    }

    uint8_t flags = kTcpFlagAck;
    if (send_fin) {
      flags |= kTcpFlagFin;
    }
    if (len > 0 && off + len == available) {
      flags |= kTcpFlagPsh;
    }

    // Time this transmission for RTT estimation when nothing is timed and
    // it carries new data (Karn: a retransmission's ACK is ambiguous).
    if (len > 0 && !pcb->rtt_timing && SeqGt(pcb->snd_nxt + len, pcb->snd_max)) {
      pcb->rtt_timing = true;
      pcb->rtt_seq = pcb->snd_nxt;
      pcb->rtt_start_slow = CurSlowTick();
    }

    TcpSendSegment(pcb, pcb->snd_nxt, flags, pcb->snd.head, off, len, false);
    pcb->snd_nxt += len;
    if (send_fin) {
      pcb->fin_sent = true;
      pcb->snd_nxt += 1;
    }
    if (SeqGt(pcb->snd_nxt, pcb->snd_max)) {
      pcb->snd_max = pcb->snd_nxt;
    }
    // Anything outstanding needs the retransmit timer.
    if (!pcb->rexmt_wheel.armed() && pcb->snd_nxt != pcb->snd_una) {
      WheelArmSlow(&pcb->rexmt_wheel, pcb->RtoTicks());
    }
    force_ack = false;
    if (len == 0 && !send_fin) {
      break;  // pure ACK sent; nothing more to push
    }
    if (send_fin) {
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

void NetStack::TcpUpdateRtt(TcpPcb* pcb, int rtt) {
  // Van Jacobson smoothing in BSD fixed point: srtt scaled 8x, rttvar 4x.
  if (pcb->srtt != 0) {
    int delta = rtt - 1 - (pcb->srtt >> 3);
    pcb->srtt += delta;
    if (pcb->srtt <= 0) {
      pcb->srtt = 1;
    }
    if (delta < 0) {
      delta = -delta;
    }
    delta -= pcb->rttvar >> 2;
    pcb->rttvar += delta;
    if (pcb->rttvar <= 0) {
      pcb->rttvar = 1;
    }
  } else {
    pcb->srtt = rtt << 3;
    pcb->rttvar = rtt << 1;
  }
  pcb->rtt_timing = false;
  pcb->rexmt_shift = 0;
}

void NetStack::TcpProcessAck(TcpPcb* pcb, const TcpHeader& th) {
  uint32_t ack = th.ack;
  if (SeqLeq(ack, pcb->snd_una)) {
    return;  // duplicate/old ACK: handled by the caller's dupack logic
  }
  if (SeqGt(ack, pcb->snd_max)) {
    TcpOutput(pcb, /*force_ack=*/true);  // ack of unsent data
    return;
  }
  uint32_t acked = ack - pcb->snd_una;

  // RTT sample when the timed sequence is covered.  Only new data is timed
  // and a retransmit stops the timing, so the sample is never ambiguous; it
  // also ends the backoff (TcpUpdateRtt resets rexmt_shift).
  if (pcb->rtt_timing && SeqGt(ack, pcb->rtt_seq)) {
    TcpUpdateRtt(pcb, static_cast<int>(CurSlowTick() - pcb->rtt_start_slow));
  }

  // Congestion window growth.
  if (pcb->snd_cwnd < pcb->snd_ssthresh) {
    pcb->snd_cwnd += pcb->mss;  // slow start
  } else {
    uint32_t incr = static_cast<uint32_t>(pcb->mss) * pcb->mss / pcb->snd_cwnd;
    pcb->snd_cwnd += incr > 0 ? incr : 1;  // congestion avoidance
  }
  if (pcb->snd_cwnd > kMaxWindow) {
    pcb->snd_cwnd = kMaxWindow;
  }

  // Drop acknowledged bytes from the send buffer (the FIN and SYN occupy
  // sequence space beyond the buffer).
  uint32_t buf_acked = acked;
  if (buf_acked > pcb->snd.cc) {
    buf_acked = static_cast<uint32_t>(pcb->snd.cc);
  }
  if (buf_acked > 0) {
    SbDrop(&pcb->snd, buf_acked);
  }
  pcb->snd_una = ack;
  if (SeqLt(pcb->snd_nxt, pcb->snd_una)) {
    pcb->snd_nxt = pcb->snd_una;
  }
  pcb->dup_acks = 0;

  // Retransmit timer: restart while data is outstanding.
  if (pcb->snd_una == pcb->snd_max) {
    wheel_.Cancel(&pcb->rexmt_wheel);
  } else {
    WheelArmSlow(&pcb->rexmt_wheel, pcb->RtoTicks());
  }

  sleep_wakeup_.Wakeup(&pcb->snd);
  SoNotify(pcb->socket);
}

void NetStack::TcpAppendRcv(TcpPcb* pcb, MBuf* data) {
  size_t len = MbufPool::ChainLength(data);
  data->pkt_len = static_cast<uint32_t>(len);
  SbAppend(&pcb->rcv, data);
  pcb->rcv_nxt += static_cast<uint32_t>(len);
}

void NetStack::TcpReassemble(TcpPcb* pcb, uint32_t seq, MBuf* data) {
  size_t len = MbufPool::ChainLength(data);
  if (len == 0) {
    pool_.FreeChain(data);
    return;
  }
  if (seq == pcb->rcv_nxt) {
    TcpAppendRcv(pcb, data);
    // Pull any now-contiguous queued segments across.  Bytes discarded or
    // trimmed here were charged to the owner's principal at admission, so
    // every drop must credit them back — otherwise overlapping retransmits
    // ratchet the quota books up until the tenant is wedged at its budget.
    for (auto it = pcb->reass.begin(); it != pcb->reass.end();) {
      uint32_t q_seq = it->seq;
      size_t q_len = MbufPool::ChainLength(it->data);
      if (SeqGt(q_seq, pcb->rcv_nxt)) {
        break;  // still a hole
      }
      if (SeqLeq(q_seq + static_cast<uint32_t>(q_len), pcb->rcv_nxt)) {
        pool_.FreeChain(it->data);  // wholly duplicate
        AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, q_len);
        it = pcb->reass.erase(it);
        continue;
      }
      // Trim overlap, then append.
      uint32_t drop = pcb->rcv_nxt - q_seq;
      MBuf* rest = pool_.TrimFront(it->data, drop);
      AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, drop);
      TcpAppendRcv(pcb, rest);
      it = pcb->reass.erase(it);
    }
    sleep_wakeup_.Wakeup(&pcb->rcv);
    SoNotify(pcb->socket);
    return;
  }
  // Out of order: insert sorted (drop exact duplicates, crediting the
  // admission charge the dropped copy carried).
  ++counters_.tcp_ooo_segments;
  auto it = pcb->reass.begin();
  while (it != pcb->reass.end() && SeqLt(it->seq, seq)) {
    ++it;
  }
  if (it != pcb->reass.end() && it->seq == seq &&
      MbufPool::ChainLength(it->data) >= len) {
    pool_.FreeChain(data);
    AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, len);
    return;
  }
  pcb->reass.insert(it, TcpPcb::OooSegment{seq, data});
}

void NetStack::TcpInput(const Ipv4Header& ip, MBuf* payload) {
  ++counters_.tcp_in;
  size_t seg_total = payload->pkt_len;
  payload = pool_.Pullup(payload, kTcpHeaderSize);
  if (payload == nullptr) {
    return;
  }
  TcpHeader th;
  if (!TcpHeader::Parse(payload->data, payload->len, &th) || th.data_off > seg_total) {
    pool_.FreeChain(payload);
    return;
  }
  // Options may extend past what Pullup gave us.
  payload = pool_.Pullup(payload, th.data_off);
  if (payload == nullptr) {
    return;
  }
  TcpHeader::Parse(payload->data, payload->len, &th);

  if (TransportChecksum(ip.src, ip.dst, kIpProtoTcp,
                        static_cast<uint16_t>(seg_total), payload) != 0) {
    ++counters_.tcp_bad_checksum;
    pool_.FreeChain(payload);
    return;
  }

  size_t data_len = seg_total - th.data_off;
  TcpConnRef conn = TcpLookup(ip.src, th.src_port, ip.dst, th.dst_port);
  if (TcpTimeWait* tw = conn.time_wait()) {
    TcpTimeWaitInput(tw, ip, th, data_len);
    pool_.FreeChain(payload);
    return;
  }
  TcpPcb* pcb = conn.pcb();
  if (pcb == nullptr || pcb->state == TcpState::kClosed) {
    TcpSendRst(ip, th, data_len);
    pool_.FreeChain(payload);
    return;
  }

  // ---- LISTEN ----
  if (pcb->state == TcpState::kListen) {
    if ((th.flags & kTcpFlagRst) != 0) {
      pool_.FreeChain(payload);
      return;
    }
    if ((th.flags & kTcpFlagAck) != 0 || (th.flags & kTcpFlagSyn) == 0) {
      TcpSendRst(ip, th, data_len);
      pool_.FreeChain(payload);
      return;
    }
    // so_qlen in BSD counts half-open children as well as the established
    // ones waiting in the accept queue.  Both live on the listener now, so
    // this is O(1) — and dead children no longer count against the backlog
    // (they leave the SYN queue in TcpCloseDone).
    size_t qlen = pcb->syn_queue.size() + pcb->accept_queue.size();
    if (qlen >= static_cast<size_t>(pcb->backlog) + 1) {
      ++counters_.tcp_listen_overflows;
      pool_.FreeChain(payload);  // overloaded: drop the SYN, client retries
      return;
    }
    // Per-principal admission (src/secure): a listener whose tenant is out
    // of socket budget sheds the SYN the same way an overloaded backlog
    // does — the peer retransmits, other tenants' listeners are untouched.
    if (accounting_ != nullptr &&
        !accounting_->AdmitSyn(static_cast<Socket*>(pcb->socket))) {
      ++counters_.tcp_syn_admission_shed;
      pool_.FreeChain(payload);
      return;
    }
    // Passive open: manufacture the child connection.
    auto child = std::make_unique<TcpPcb>();
    child->laddr = ip.dst;
    child->lport = th.dst_port;
    child->faddr = ip.src;
    child->fport = th.src_port;
    child->listener = pcb;
    child->iss = NextIss();
    child->snd_una = child->iss;
    child->snd_nxt = child->iss + 1;
    child->snd_max = child->snd_nxt;
    child->irs = th.seq;
    child->rcv_nxt = th.seq + 1;
    child->snd_wnd = th.window;
    if (th.mss_option != 0 && th.mss_option < child->mss) {
      child->mss = th.mss_option;
    }
    child->snd_cwnd = child->mss;
    child->snd_ssthresh = kMaxWindow;
    child->snd.hiwat = default_sock_buf_;
    child->rcv.hiwat = default_sock_buf_;
    child->state = TcpState::kSynReceived;
    TcpPcb* child_raw = AddTcpPcb(std::move(child));
    TcpIndexInsert(child_raw);
    TcpBindWheelTimers(child_raw);
    WheelArmSlow(&child_raw->conn_wheel, kConnTimeoutTicks);
    pcb->syn_queue.push_back(child_raw);
    TcpSendSegment(child_raw, child_raw->iss, kTcpFlagSyn | kTcpFlagAck, nullptr, 0, 0,
                   /*with_mss=*/true);
    WheelArmSlow(&child_raw->rexmt_wheel, child_raw->RtoTicks());
    pool_.FreeChain(payload);
    return;
  }

  // ---- SYN_SENT ----
  if (pcb->state == TcpState::kSynSent) {
    if ((th.flags & kTcpFlagAck) != 0 &&
        (SeqLeq(th.ack, pcb->iss) || SeqGt(th.ack, pcb->snd_max))) {
      TcpSendRst(ip, th, data_len);
      pool_.FreeChain(payload);
      return;
    }
    if ((th.flags & kTcpFlagRst) != 0) {
      if ((th.flags & kTcpFlagAck) != 0) {
        TcpDrop(pcb, Error::kConnRefused);
      }
      pool_.FreeChain(payload);
      return;
    }
    if ((th.flags & kTcpFlagSyn) == 0) {
      pool_.FreeChain(payload);
      return;
    }
    pcb->irs = th.seq;
    pcb->rcv_nxt = th.seq + 1;
    pcb->snd_wnd = th.window;
    if (th.mss_option != 0 && th.mss_option < pcb->mss) {
      pcb->mss = th.mss_option;
    }
    pcb->snd_cwnd = pcb->mss;
    pcb->snd_ssthresh = kMaxWindow;
    if ((th.flags & kTcpFlagAck) != 0) {
      // Our SYN is acknowledged: ESTABLISHED.
      pcb->snd_una = th.ack;
      wheel_.Cancel(&pcb->rexmt_wheel);
      wheel_.Cancel(&pcb->conn_wheel);
      TcpSetState(pcb, TcpState::kEstablished);
      TcpOutput(pcb, /*force_ack=*/true);
    } else {
      // Simultaneous open.
      TcpSetState(pcb, TcpState::kSynReceived);
      TcpSendSegment(pcb, pcb->iss, kTcpFlagSyn | kTcpFlagAck, nullptr, 0, 0, true);
    }
    pool_.FreeChain(payload);
    return;
  }

  // ---- General segment processing ----

  // RST.  Past both FINs (a TIME_WAIT pcb whose socket the application
  // still holds) the connection has ended cleanly, so the reset is no error.
  if ((th.flags & kTcpFlagRst) != 0) {
    TcpDrop(pcb,
            pcb->state == TcpState::kTimeWait ? Error::kOk : Error::kConnReset,
            /*announce=*/false);
    pool_.FreeChain(payload);
    return;
  }

  // Window update (simplified: trust the latest segment's window).
  if ((th.flags & kTcpFlagAck) != 0) {
    pcb->snd_wnd = th.window;
  }

  // Strip the header so `payload` is pure data, then keep only what lies
  // inside the window (keep it simple: data already received or past the
  // window is trimmed, not queued).
  payload = pool_.TrimFront(payload, th.data_off);
  pool_.TrimTo(payload, data_len);
  uint32_t seq = th.seq;
  if (ClipToWindow(pcb->rcv_nxt, TcpReceiveWindow(pcb), &seq, &data_len)) {
    pool_.FreeChain(payload);
    payload = nullptr;
    TcpOutput(pcb, /*force_ack=*/true);
  } else if (data_len > 0) {
    payload = pool_.TrimFront(payload, seq - th.seq);
    pool_.TrimTo(payload, data_len);
  }

  // ACK processing.
  if ((th.flags & kTcpFlagAck) != 0) {
    switch (pcb->state) {
      case TcpState::kSynReceived:
        if (SeqGt(th.ack, pcb->snd_una) && SeqLeq(th.ack, pcb->snd_max)) {
          wheel_.Cancel(&pcb->rexmt_wheel);
          wheel_.Cancel(&pcb->conn_wheel);
          TcpSetState(pcb, TcpState::kEstablished);
          TcpProcessAck(pcb, th);
          // Hand the connection over: out of the SYN queue, into the
          // listener's accept queue.
          if (pcb->listener != nullptr) {
            pcb->listener->syn_queue.remove(pcb);
            pcb->listener->accept_queue.push_back(pcb);
            sleep_wakeup_.Wakeup(&pcb->listener->accept_queue);
            SoNotify(pcb->listener->socket);
          }
        } else {
          TcpSendRst(ip, th, data_len);
          if (payload != nullptr) {
            pool_.FreeChain(payload);
          }
          return;
        }
        break;
      default: {
        bool was_dup = SeqLeq(th.ack, pcb->snd_una) && data_len == 0 &&
                       pcb->snd_una != pcb->snd_max;
        if (was_dup) {
          ++pcb->dup_acks;
          if (pcb->dup_acks == 3) {
            // Fast retransmit.
            ++counters_.tcp_fast_retransmits;
            uint32_t flight = pcb->snd_max - pcb->snd_una;
            uint32_t half = flight / 2;
            uint32_t floor2 = 2u * pcb->mss;
            pcb->snd_ssthresh = half > floor2 ? half : floor2;
            uint32_t saved_nxt = pcb->snd_nxt;
            pcb->snd_nxt = pcb->snd_una;
            pcb->snd_cwnd = pcb->mss;
            TcpOutput(pcb, false);
            pcb->snd_nxt = SeqGt(saved_nxt, pcb->snd_nxt) ? saved_nxt : pcb->snd_nxt;
            pcb->snd_cwnd = pcb->snd_ssthresh;
          }
        } else {
          TcpProcessAck(pcb, th);
        }

        // Our-FIN-acknowledged transitions.
        bool fin_acked = pcb->fin_sent && SeqGeq(pcb->snd_una, pcb->snd_max) &&
                         pcb->snd.cc == 0;
        switch (pcb->state) {
          case TcpState::kFinWait1:
            if (fin_acked) {
              TcpSetState(pcb, pcb->peer_fin_seen ? TcpState::kTimeWait
                                                  : TcpState::kFinWait2);
            }
            break;
          case TcpState::kClosing:
            if (fin_acked) {
              TcpSetState(pcb, TcpState::kTimeWait);
            }
            break;
          case TcpState::kLastAck:
            if (fin_acked) {
              TcpSetState(pcb, TcpState::kClosed);
              TcpCloseDone(pcb);
              if (payload != nullptr) {
                pool_.FreeChain(payload);
              }
              return;
            }
            break;
          default:
            break;
        }
        break;
      }
    }
  }

  // Data arriving on a socket the application has fully closed: BSD
  // aborts the connection with a RST (there will never be a reader).
  if (pcb->detached && payload != nullptr && data_len > 0) {
    TcpSendRst(ip, th, data_len);
    pool_.FreeChain(payload);
    TcpDrop(pcb, Error::kOk, /*announce=*/false);  // the RST just went out
    return;
  }

  // Data.
  bool send_now = false;
  if (payload != nullptr && data_len > 0) {
    if (pcb->state == TcpState::kEstablished || pcb->state == TcpState::kFinWait1 ||
        pcb->state == TcpState::kFinWait2) {
      // Per-principal mbuf charge BEFORE the sequence space advances: an
      // over-budget segment is dropped unACKed, so the peer retransmits and
      // the tenant is flow-controlled at its budget with no data loss.
      // Children not yet accepted bill to their listener's principal.
      BsdSocket* owner = pcb->socket != nullptr
                             ? pcb->socket
                             : (pcb->listener != nullptr ? pcb->listener->socket
                                                         : nullptr);
      if (!AcctChargeRx(owner, &pcb->rx_charged, &pcb->acct_tag, data_len)) {
        // An in-order segment outranks parked out-of-order data: evict the
        // reassembly queue farthest-first (crediting its charges) to make
        // room.  Without this a parked tail can pin the budget so that the
        // hole-filling segment at rcv_nxt is never admittable and the
        // connection wedges; the sender's go-back-N retransmission
        // re-covers whatever is evicted here.
        bool admitted = false;
        if (seq == pcb->rcv_nxt) {
          while (!pcb->reass.empty()) {
            size_t q_len = MbufPool::ChainLength(pcb->reass.back().data);
            pool_.FreeChain(pcb->reass.back().data);
            pcb->reass.pop_back();
            AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, q_len);
            if (AcctChargeRx(owner, &pcb->rx_charged, &pcb->acct_tag,
                             data_len)) {
              admitted = true;
              break;
            }
          }
        }
        if (!admitted) {
          pool_.FreeChain(payload);
          payload = nullptr;
          return;
        }
      }
      bool in_order = seq == pcb->rcv_nxt;
      TcpReassemble(pcb, seq, payload);
      payload = nullptr;
      if (in_order) {
        // Delayed ACK: every second segment forces one (BSD behaviour).
        if (pcb->delayed_ack) {
          send_now = true;
        } else {
          TcpSetDelayedAck(pcb);
        }
      } else {
        send_now = true;  // duplicate ACK for fast retransmit at the sender
      }
    } else {
      pool_.FreeChain(payload);
      payload = nullptr;
    }
  } else if (payload != nullptr) {
    pool_.FreeChain(payload);
    payload = nullptr;
  }

  // FIN processing: only when it is in order (all data received).
  if ((th.flags & kTcpFlagFin) != 0 && !pcb->peer_fin_seen &&
      seq + static_cast<uint32_t>(data_len) == pcb->rcv_nxt && pcb->reass.empty()) {
    pcb->peer_fin_seen = true;
    pcb->rcv_nxt += 1;
    send_now = true;
    switch (pcb->state) {
      case TcpState::kEstablished:
        TcpSetState(pcb, TcpState::kCloseWait);
        break;
      case TcpState::kFinWait1:
        // Our FIN not yet acked (else we'd be in FIN_WAIT_2 above).
        TcpSetState(pcb, TcpState::kClosing);
        break;
      case TcpState::kFinWait2:
        TcpSetState(pcb, TcpState::kTimeWait);
        break;
      default:
        break;
    }
    sleep_wakeup_.Wakeup(&pcb->rcv);
    SoNotify(pcb->socket);
  }

  if (rx_batch_active_) {
    // A polled driver has the NetIoBatch bracket open: defer the response
    // pass so a burst of segments costs one TcpOutput per connection.
    RxBatchDefer(pcb, send_now);
  } else {
    // send_now forces an ACK; otherwise piggyback one on any ready data.
    TcpOutput(pcb, send_now);
    TcpRetireTimeWait(pcb);
  }
}

// ---------------------------------------------------------------------------
// RX batching (NetIoBatch)
// ---------------------------------------------------------------------------

void NetStack::BeginRxBatch() {
  OSKIT_ASSERT_MSG(!rx_batch_active_, "nested RX batch");
  rx_batch_active_ = true;
}

void NetStack::RxBatchDefer(TcpConnRef conn, bool force_ack) {
  for (RxBatchEntry& entry : rx_batch_) {
    if (entry.conn == conn) {
      entry.force_ack = entry.force_ack || force_ack;
      return;
    }
  }
  rx_batch_.push_back({conn, force_ack});
}

void NetStack::EndRxBatch() {
  rx_batch_active_ = false;
  if (rx_batch_.empty()) {
    return;
  }
  ++counters_.tcp_rx_batches;
  // Swapping with a spare keeps both vectors' capacity: no batch allocates.
  rx_batch_spare_.swap(rx_batch_);
  // Entries are live: TcpCloseDone and TcpTimeWaitClose scrub a dying
  // connection out of the pending batch, so input inside the bracket cannot
  // leave a dangling deferral.
  for (const RxBatchEntry& entry : rx_batch_spare_) {
    ++counters_.tcp_batched_outputs;
    if (TcpPcb* pcb = entry.conn.pcb()) {
      TcpOutput(pcb, entry.force_ack);
      TcpRetireTimeWait(pcb);
    }
  }
  rx_batch_spare_.clear();
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void NetStack::TcpRexmtExpired(TcpPcb* pcb) {
  ++counters_.tcp_retransmits;
  ++pcb->rexmt_shift;
  if (pcb->rexmt_shift > kMaxRexmtShift) {
    TcpDrop(pcb, Error::kTimedOut);
    return;
  }
  // Karn: back off, and don't sample RTT for retransmitted data.
  pcb->rtt_timing = false;
  uint32_t flight = pcb->snd_max - pcb->snd_una;
  uint32_t half = flight / 2;
  uint32_t floor2 = 2u * pcb->mss;
  pcb->snd_ssthresh = half > floor2 ? half : floor2;
  pcb->snd_cwnd = pcb->mss;

  if (pcb->state == TcpState::kSynSent) {
    TcpSendSegment(pcb, pcb->iss, kTcpFlagSyn, nullptr, 0, 0, /*with_mss=*/true);
    WheelArmSlow(&pcb->rexmt_wheel, pcb->RtoTicks());
    return;
  }
  if (pcb->state == TcpState::kSynReceived) {
    TcpSendSegment(pcb, pcb->iss, kTcpFlagSyn | kTcpFlagAck, nullptr, 0, 0, true);
    WheelArmSlow(&pcb->rexmt_wheel, pcb->RtoTicks());
    return;
  }
  pcb->snd_nxt = pcb->snd_una;
  pcb->fin_sent = false;  // a lost FIN must be resent
  TcpOutput(pcb, false);
  WheelArmSlow(&pcb->rexmt_wheel, pcb->RtoTicks());
}

// ---------------------------------------------------------------------------
// Timer plumbing
// ---------------------------------------------------------------------------
//
// The wheel ticks every 100 ms.  Delayed ACKs fire on 200 ms boundaries,
// and every other connection timer counts in 500 ms slow ticks: a timer
// armed for N slow ticks fires at wheel tick (CurSlowTick() + N) * 5, the
// Nth 500 ms boundary from now.  The wheel tick is scheduled further ahead
// than any packet delivery, so at equal timestamps timers run before
// packets.  TcpTimerGoldenTest (tests/netscale_test.cc) holds the wire
// behaviour these rules produce.

uint64_t NetStack::CurSlowTick() const {
  return static_cast<uint64_t>(clock_->Now() - epoch_) / 500'000'000ull;
}

uint64_t NetStack::CurFastTick() const {
  return static_cast<uint64_t>(clock_->Now() - epoch_) / 200'000'000ull;
}

void NetStack::WheelArmSlow(WheelTimer* timer, int slow_ticks) {
  uint64_t fire = (CurSlowTick() + static_cast<uint64_t>(slow_ticks)) * 5;
  wheel_.Arm(timer, fire - wheel_.now());
}

void NetStack::TcpBindWheelTimers(TcpPcb* pcb) {
  // A retransmit and a persist expiry due on the same tick: the retransmit
  // runs and the window probe waits one more slow tick, whichever of the
  // two the wheel fires first.
  wheel_.Bind(&pcb->rexmt_wheel, [this, pcb] {
    if (pcb->persist_wheel.armed() &&
        pcb->persist_wheel.deadline() == wheel_.now()) {
      wheel_.Arm(&pcb->persist_wheel, 5);
    }
    TcpRexmtExpired(pcb);
  });
  wheel_.Bind(&pcb->persist_wheel, [this, pcb] {
    if (pcb->rexmt_wheel.armed() &&
        pcb->rexmt_wheel.deadline() == wheel_.now()) {
      wheel_.Arm(&pcb->persist_wheel, 5);
      return;
    }
    TcpPersistExpired(pcb);
  });
  wheel_.Bind(&pcb->conn_wheel, [this, pcb] { TcpDrop(pcb, Error::kTimedOut); });
  wheel_.Bind(&pcb->time_wait_wheel, [this, pcb] {
    if (pcb->state == TcpState::kTimeWait) {
      TcpSetState(pcb, TcpState::kClosed);
      TcpCloseDone(pcb);
    }
  });
  wheel_.Bind(&pcb->delack_wheel, [this, pcb] {
    if (pcb->delayed_ack) {
      ++counters_.tcp_delayed_acks;
      TcpOutput(pcb, /*force_ack=*/true);
    }
  });
}

void NetStack::TcpCancelAllTimers(TcpPcb* pcb) {
  pcb->delayed_ack = false;
  wheel_.Cancel(&pcb->rexmt_wheel);
  wheel_.Cancel(&pcb->persist_wheel);
  wheel_.Cancel(&pcb->conn_wheel);
  wheel_.Cancel(&pcb->time_wait_wheel);
  wheel_.Cancel(&pcb->delack_wheel);
}

void NetStack::TcpSetDelayedAck(TcpPcb* pcb) {
  pcb->delayed_ack = true;
  // Whenever the flag is set, the handle is armed for the next 200 ms
  // boundary.  An already-armed handle necessarily points at that boundary.
  if (!pcb->delack_wheel.armed()) {
    uint64_t fire = (CurFastTick() + 1) * 2;
    wheel_.Arm(&pcb->delack_wheel, fire - wheel_.now());
  }
}

void NetStack::TcpPersistExpired(TcpPcb* pcb) {
  // Window probe: force out one byte past the window.
  if (pcb->snd.cc > pcb->snd_nxt - pcb->snd_una) {
    uint32_t off = pcb->snd_nxt - pcb->snd_una;
    TcpSendSegment(pcb, pcb->snd_nxt, kTcpFlagAck, pcb->snd.head, off, 1, false);
    pcb->snd_nxt += 1;
    if (SeqGt(pcb->snd_nxt, pcb->snd_max)) {
      pcb->snd_max = pcb->snd_nxt;
    }
  }
  WheelArmSlow(&pcb->persist_wheel, pcb->RtoTicks() * 2);
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

void NetStack::TcpDrop(TcpPcb* pcb, Error err, bool announce) {
  // BSD tcp_drop: a synchronized connection announces the abort with a RST,
  // so a peer blocked in Recv gets ECONNRESET instead of hanging on a
  // half-dead connection.  (SYN_SENT has nothing to reset: the peer either
  // never saw us or will RST our retransmitted SYN itself.)
  if (announce && pcb->state >= TcpState::kSynReceived &&
      pcb->state != TcpState::kTimeWait) {
    ++counters_.tcp_rst_out;
    TcpSendSegment(pcb, pcb->snd_nxt, kTcpFlagRst | kTcpFlagAck, nullptr, 0, 0,
                   false);
  }
  pcb->so_error = err;
  TcpSetState(pcb, TcpState::kClosed);
  TcpCloseDone(pcb);
}

void NetStack::TcpCloseDone(TcpPcb* pcb) {
  sleep_wakeup_.Wakeup(&pcb->rcv);
  sleep_wakeup_.Wakeup(&pcb->snd);
  SoNotify(pcb->socket);
  // A closed pcb must never fire a timer again: a closed-but-referenced pcb
  // would inflate the retransmit counter with no-op output passes, and a
  // callback on a freed pcb would be worse.
  TcpCancelAllTimers(pcb);
  if (pcb->listener != nullptr) {
    // A half-open child dying (RST, handshake timeout) leaves the SYN
    // queue, freeing its backlog slot.
    pcb->listener->syn_queue.remove(pcb);
    if (pcb->socket == nullptr) {
      // A child already promoted to the accept queue stays allocated so a
      // later Accept can still return it (and deliver so_error there);
      // anything else has no owner left and frees now.
      const auto& queued = pcb->listener->accept_queue;
      if (std::ranges::find(queued, pcb) == queued.end()) {
        pcb->detached = true;
      }
    }
  }
  // Children queued on a listener that is going away are orphaned by
  // SoDetach; here we only reap detached, fully-closed pcbs.
  if (!pcb->detached) {
    return;  // the socket still references it; freed on SoDetach
  }
  TcpIndexRemove(pcb);
  // Credit whatever RX charge the application never drained, so a tenant's
  // books drain to zero at teardown.
  AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, pcb->rx_charged);
  SbFlush(&pcb->snd);
  SbFlush(&pcb->rcv);
  for (auto& seg : pcb->reass) {
    pool_.FreeChain(seg.data);
  }
  pcb->reass.clear();
  // Drop any output pass an open RX batch deferred for this pcb: the
  // pointer dies here, and a later allocation could reuse the address.
  std::erase_if(rx_batch_, [pcb](const RxBatchEntry& entry) {
    return entry.conn == TcpConnRef(pcb);
  });
  tcp_pcbs_.erase(pcb->self);
}

// ---------------------------------------------------------------------------
// TIME_WAIT records
// ---------------------------------------------------------------------------

void NetStack::TcpRetireTimeWait(TcpPcb* pcb) {
  // Only a connection the application has let go of, with no output pass
  // pending, nothing left to deliver or credit, and the pcb the owner of
  // its 4-tuple in the index (the first of two colliding pcbs is).
  if (pcb->state != TcpState::kTimeWait || !pcb->detached ||
      rx_batch_active_ || pcb->rcv.cc != 0 || pcb->rx_charged != 0) {
    return;
  }
  auto keyed = tcp_conn_.find(
      MakeTcpKey(pcb->laddr, pcb->lport, pcb->faddr, pcb->fport));
  if (keyed == tcp_conn_.end() || keyed->second != TcpConnRef(pcb)) {
    return;
  }
  // What TIME_WAIT means, and so all a record needs: both FINs are in and
  // acknowledged, nothing is left to send or reassemble, no ACK is owed,
  // and only the 2MSL timer runs.
  OSKIT_ASSERT(pcb->fin_sent && pcb->peer_fin_seen &&
               pcb->snd_una == pcb->snd_max && pcb->snd_nxt == pcb->snd_max &&
               pcb->snd.cc == 0 && pcb->reass.empty() && !pcb->delayed_ack &&
               pcb->time_wait_wheel.armed());
  auto* tw = new TcpTimeWait;
  static_cast<TcpEndpoints&>(*tw) = *pcb;
  tw->snd_nxt = pcb->snd_nxt;
  tw->rcv_nxt = pcb->rcv_nxt;
  tw->rcv_wnd = static_cast<uint16_t>(TcpReceiveWindow(pcb));
  wheel_.Bind(&tw->expiry, [this, tw] { TcpTimeWaitClose(tw); });
  wheel_.Arm(&tw->expiry, pcb->time_wait_wheel.deadline() - wheel_.now());
  // Take the pcb's place in both indices, at the same position.
  keyed->second = tw;
  std::vector<TcpConnRef>& held = tcp_by_lport_[pcb->lport];
  held.at(LportSlot(held, pcb)) = tw;
  ++counters_.tcp_time_wait;
  tcp_pcbs_.erase(pcb->self);
}

void NetStack::TcpTimeWaitInput(TcpTimeWait* tw, const Ipv4Header& ip,
                                const TcpHeader& th, size_t data_len) {
  // Step for step what the general path does with a detached TIME_WAIT
  // pcb, whose sequence state no longer moves (DESIGN.md has the table).
  if ((th.flags & kTcpFlagRst) != 0) {
    TcpTimeWaitClose(tw);
    return;
  }
  uint32_t seq = th.seq;
  if (ClipToWindow(tw->rcv_nxt, tw->rcv_wnd, &seq, &data_len)) {
    TcpTimeWaitAck(tw);
  }
  // An ACK of data never sent draws an ACK.
  if ((th.flags & kTcpFlagAck) != 0 && SeqGt(th.ack, tw->snd_nxt)) {
    TcpTimeWaitAck(tw);
  }
  // Data that fits has no reader: reset the connection.
  if (data_len > 0) {
    TcpSendRst(ip, th, data_len);
    TcpTimeWaitClose(tw);
    return;
  }
  if (rx_batch_active_) {
    RxBatchDefer(tw, false);
  }
}

void NetStack::TcpTimeWaitAck(const TcpTimeWait* tw) {
  ++counters_.tcp_out;
  TcpEmit(*tw, tw->snd_nxt, tw->rcv_nxt, kTcpFlagAck, tw->rcv_wnd,
          pool_.GetHeaderAligned(kTcpHeaderSize), 0);
}

void NetStack::TcpTimeWaitClose(TcpTimeWait* tw) {
  TcpIndexRemove(tw);
  std::erase_if(rx_batch_, [tw](const RxBatchEntry& entry) {
    return entry.conn == TcpConnRef(tw);
  });
  counters_.tcp_time_wait -= 1;
  delete tw;
}

}  // namespace oskit::net
