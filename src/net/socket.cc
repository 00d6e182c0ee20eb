// The BSD socket layer: blocking user operations over the PCBs, the COM
// Socket object, and the SocketFactory the minimal C library plugs into.

#include <algorithm>
#include <cstring>

#include "src/base/panic.h"
#include "src/net/stack.h"

namespace oskit::net {

// ---------------------------------------------------------------------------
// Socket-layer operations (the so* family)
// ---------------------------------------------------------------------------

Error NetStack::SoBind(BsdSocket* so, const SockAddr& addr) {
  // Conflict detection probes the local-port bucket instead of scanning the
  // whole PCB list (both modes: the index is always maintained).
  if (so->type() == SockType::kStream) {
    TcpPcb* pcb = so->tcp();
    if (pcb->state != TcpState::kClosed) {
      return Error::kInval;
    }
    auto bucket = tcp_by_lport_.find(addr.port);
    if (bucket != tcp_by_lport_.end()) {
      // TIME_WAIT records hold their port like any pcb.
      for (TcpConnRef other : bucket->second) {
        InetAddr held = other.ends().laddr;
        if (other != TcpConnRef(pcb) &&
            (held == addr.addr || held.IsAny() || addr.addr.IsAny())) {
          return Error::kAddrInUse;
        }
      }
    }
    TcpIndexRemove(pcb);  // re-bind: drop any stale index entry
    pcb->laddr = addr.addr;
    pcb->lport = addr.port;
    TcpIndexInsert(pcb);
    return Error::kOk;
  }
  UdpPcb* pcb = so->udp();
  auto bucket = udp_by_lport_.find(addr.port);
  if (bucket != udp_by_lport_.end()) {
    for (UdpPcb* other : bucket->second) {
      if (other != pcb &&
          (other->laddr == addr.addr || other->laddr.IsAny() ||
           addr.addr.IsAny())) {
        return Error::kAddrInUse;
      }
    }
  }
  UdpIndexRemove(pcb);
  pcb->laddr = addr.addr;
  pcb->lport = addr.port;
  UdpIndexInsert(pcb);
  return Error::kOk;
}

Error NetStack::SoConnect(BsdSocket* so, const SockAddr& addr) {
  if (so->type() == SockType::kDgram) {
    UdpPcb* pcb = so->udp();
    pcb->faddr = addr.addr;
    pcb->fport = addr.port;
    pcb->connected = true;
    if (pcb->lport == 0) {
      pcb->lport = AllocEphemeralPort(/*tcp=*/false);
      if (pcb->lport == 0) {
        pcb->connected = false;
        // EADDRNOTAVAIL, distinguishable from mbuf exhaustion (kNoBufs).
        return Error::kAddrNotAvail;
      }
      UdpIndexInsert(pcb);
    }
    return Error::kOk;
  }

  TcpPcb* pcb = so->tcp();
  if (pcb->state != TcpState::kClosed) {
    return Error::kIsConn;
  }
  TcpIndexRemove(pcb);  // the 4-tuple is about to change
  if (pcb->lport == 0) {
    pcb->lport = AllocEphemeralPort(/*tcp=*/true);
    if (pcb->lport == 0) {
      // EADDRNOTAVAIL: the ephemeral range is spent.  Distinguishable from
      // kNoBufs (mbuf memory) and kQuotaExceeded (per-principal denial),
      // each with its own counter (net.port.exhausted here).
      return Error::kAddrNotAvail;
    }
  }
  if (pcb->laddr.IsAny()) {
    InetAddr next_hop;
    int ifindex = RouteFor(addr.addr, &next_hop);
    if (ifindex < 0) {
      return Error::kNetUnreach;
    }
    pcb->laddr = ifaces_[ifindex].addr;
  }
  pcb->faddr = addr.addr;
  pcb->fport = addr.port;
  TcpIndexInsert(pcb);
  pcb->iss = NextIss();
  pcb->snd_una = pcb->iss;
  pcb->snd_nxt = pcb->iss + 1;
  pcb->snd_max = pcb->snd_nxt;
  pcb->snd_cwnd = pcb->mss;
  pcb->snd_ssthresh = 65535;
  pcb->snd.hiwat = default_sock_buf_;
  pcb->rcv.hiwat = default_sock_buf_;
  pcb->state = TcpState::kSynSent;
  WheelArmSlow(&pcb->conn_wheel, 60);  // 30 s
  TcpSendSegment(pcb, pcb->iss, kTcpFlagSyn, nullptr, 0, 0, /*with_mss=*/true);
  WheelArmSlow(&pcb->rexmt_wheel, pcb->RtoTicks());

  if (so->nonblocking()) {
    // The caller polls completion through the selector / GetPeerName.
    return Error::kWouldBlock;
  }
  // Block until the handshake resolves (§4.7.6 sleep/wakeup).
  while (pcb->state == TcpState::kSynSent || pcb->state == TcpState::kSynReceived) {
    sleep_wakeup_.Sleep(&pcb->rcv);
  }
  if (pcb->state != TcpState::kEstablished &&
      pcb->state != TcpState::kCloseWait) {
    Error err = pcb->so_error;
    return Ok(err) ? Error::kConnRefused : err;
  }
  return Error::kOk;
}

Error NetStack::SoListen(BsdSocket* so, int backlog) {
  if (so->type() != SockType::kStream) {
    return Error::kNotImpl;
  }
  TcpPcb* pcb = so->tcp();
  if (pcb->lport == 0) {
    return Error::kInval;
  }
  if (backlog < 1) {
    backlog = 1;
  }
  pcb->backlog = backlog;
  pcb->state = TcpState::kListen;
  // Enter the listeners-only demux index (idempotent for a re-listen);
  // TcpIndexRemove drops the entry when the pcb leaves the tables.
  auto& listeners = tcp_listeners_[pcb->lport];
  if (std::ranges::find(listeners, pcb) == listeners.end()) {
    listeners.push_back(pcb);
  }
  return Error::kOk;
}

Error NetStack::SoAccept(BsdSocket* so, SockAddr* out_peer, TcpPcb** out_pcb) {
  TcpPcb* listener = so->tcp();
  if (listener == nullptr || listener->state != TcpState::kListen) {
    return Error::kInval;
  }
  while (listener->accept_queue.empty()) {
    if (listener->state != TcpState::kListen) {
      return Error::kAborted;  // listener closed while we waited
    }
    if (so->nonblocking()) {
      return Error::kWouldBlock;
    }
    sleep_wakeup_.Sleep(&listener->accept_queue);
  }
  *out_pcb = PopAccepted(listener, out_peer);
  return Error::kOk;
}

TcpPcb* NetStack::PopAccepted(TcpPcb* listener, SockAddr* out_peer) {
  TcpPcb* child = listener->accept_queue.front();
  listener->accept_queue.pop_front();
  child->listener = nullptr;
  out_peer->addr = child->faddr;
  out_peer->port = child->fport;
  return child;
}

Error NetStack::SoAcceptBatch(BsdSocket* so, SockAddr* out_peers,
                              Socket** out_sockets, size_t capacity,
                              size_t* out_count) {
  *out_count = 0;
  TcpPcb* listener = so->tcp();
  if (listener == nullptr || listener->state != TcpState::kListen) {
    return Error::kInval;
  }
  size_t n = 0;
  while (n < capacity && !listener->accept_queue.empty()) {
    out_sockets[n] = new BsdSocket(this, PopAccepted(listener, &out_peers[n]));
    ++n;
  }
  *out_count = n;
  return Error::kOk;
}

Error NetStack::SoWaitSendSpace(BsdSocket* so, TcpPcb* pcb, size_t* space) {
  for (;;) {
    // Valid sending states.
    if (pcb->state != TcpState::kEstablished && pcb->state != TcpState::kCloseWait) {
      return Ok(pcb->so_error) ? Error::kPipe : pcb->so_error;
    }
    if (pcb->fin_queued) {
      return Error::kPipe;  // we already shut down our write side
    }
    *space = pcb->snd.Space();
    if (*space > 0) {
      return Error::kOk;
    }
    if (so->nonblocking()) {
      return Error::kWouldBlock;
    }
    sleep_wakeup_.Sleep(&pcb->snd);
  }
}

Error NetStack::SoSend(BsdSocket* so, const void* buf, size_t len,
                       size_t* out_actual) {
  *out_actual = 0;
  if (so->type() == SockType::kDgram) {
    UdpPcb* pcb = so->udp();
    if (!pcb->connected) {
      return Error::kNotConn;
    }
    SockAddr to{pcb->faddr, pcb->fport};
    return SoSendTo(so, buf, len, to, out_actual);
  }

  TcpPcb* pcb = so->tcp();
  const auto* data = static_cast<const uint8_t*>(buf);
  size_t sent = 0;
  while (sent < len) {
    size_t space = 0;
    Error err = SoWaitSendSpace(so, pcb, &space);
    if (!Ok(err)) {
      if (sent > 0) {
        break;  // short write
      }
      return err;
    }
    size_t n = len - sent;
    if (n > space) {
      n = space;
    }
    // Copy user bytes into the send buffer (the socket-layer copy the
    // classic API cannot avoid — SendBufIo below is the path without it).
    MBuf* chain = pool_.FromData(data + sent, n);
    SbAppend(&pcb->snd, chain);
    counters_.tx_copied_bytes += n;
    sent += n;
    TcpOutput(pcb, /*force_ack=*/false);
  }
  *out_actual = sent;
  return Error::kOk;
}

namespace {

// One Vectors() pin shared by every external mbuf built from that slice.
// The last mbuf free (delivery acked, or connection teardown) releases the
// pin and the source object.
struct SendfileRef {
  ComPtr<BufIoVec> src;
  off_t64 offset;
  size_t amount;
  size_t outstanding;
};

void SendfileSegFree(void* ctx, uint8_t* /*buf*/, size_t /*size*/) {
  auto* ref = static_cast<SendfileRef*>(ctx);
  if (--ref->outstanding == 0) {
    ref->src->UnmapVectors(ref->offset, ref->amount);
    delete ref;
  }
}

}  // namespace

Error NetStack::SoSendBufIo(BsdSocket* so, BufIoVec* src, off_t64 offset,
                            size_t amount, size_t* out_actual) {
  *out_actual = 0;
  if (so->type() != SockType::kStream) {
    return Error::kNotImpl;
  }
  TcpPcb* pcb = so->tcp();
  size_t sent = 0;
  while (sent < amount) {
    size_t space = 0;
    Error wait = SoWaitSendSpace(so, pcb, &space);
    if (!Ok(wait)) {
      if (sent > 0) {
        break;
      }
      return wait;
    }
    size_t n = amount - sent;
    if (n > space) {
      n = space;
    }
    // Ask the source for a scatter-gather view of this slice.  The send
    // buffer is window-limited (< 64 KB), so a block-granular source needs
    // well under kSendfileSegCap pieces.
    constexpr size_t kSendfileSegCap = 64;
    BufIoSegment segs[kSendfileSegCap];
    size_t count = 0;
    Error err = src->Vectors(segs, kSendfileSegCap, offset + sent, n, &count);
    if (Ok(err) && count > 0) {
      // Graft each piece into the send buffer as external-storage mbufs:
      // TCP transmits (and retransmits) straight out of the source's own
      // memory; the shared SendfileRef unpins once the last byte is acked.
      auto* ref = new SendfileRef{ComPtr<BufIoVec>::Retain(src), offset + sent,
                                  n, count};
      MBuf* head = nullptr;
      MBuf* tail = nullptr;
      for (size_t i = 0; i < count; ++i) {
        MBuf* m = pool_.GetExternal(const_cast<uint8_t*>(segs[i].data),
                                    segs[i].len, SendfileSegFree, ref);
        m->len = static_cast<uint32_t>(segs[i].len);
        if (head == nullptr) {
          head = m;
        } else {
          tail->next = m;
        }
        tail = m;
      }
      head->pkt_len = static_cast<uint32_t>(n);
      SbAppend(&pcb->snd, head);
      counters_.tx_sendfile_bytes += n;
    } else {
      // The source refused a vector (too fragmented, not resident): fall
      // back to the counted copy so the call still makes progress.
      std::vector<uint8_t> tmp(n);
      size_t actual = 0;
      err = src->Read(tmp.data(), offset + sent, n, &actual);
      if (!Ok(err) || actual == 0) {
        if (sent > 0) {
          break;
        }
        return Ok(err) ? Error::kIo : err;
      }
      n = actual;
      MBuf* chain = pool_.FromData(tmp.data(), n);
      SbAppend(&pcb->snd, chain);
      counters_.tx_sendfile_fallback_bytes += n;
      counters_.tx_copied_bytes += n;
    }
    sent += n;
    TcpOutput(pcb, /*force_ack=*/false);
  }
  *out_actual = sent;
  return Error::kOk;
}

Error NetStack::SoRecv(BsdSocket* so, void* buf, size_t len, size_t* out_actual) {
  *out_actual = 0;
  if (so->type() == SockType::kDgram) {
    SockAddr from;
    return SoRecvFrom(so, buf, len, &from, out_actual);
  }

  TcpPcb* pcb = so->tcp();
  for (;;) {
    if (pcb->rcv.cc > 0) {
      break;
    }
    if (pcb->peer_fin_seen || pcb->state == TcpState::kClosed) {
      if (!Ok(pcb->so_error) && pcb->so_error != Error::kOk) {
        return pcb->so_error;
      }
      return Error::kOk;  // EOF: *out_actual stays 0
    }
    if (so->nonblocking()) {
      return Error::kWouldBlock;
    }
    sleep_wakeup_.Sleep(&pcb->rcv);
  }
  uint32_t window_before = TcpReceiveWindow(pcb);
  size_t n = SbCopyOut(&pcb->rcv, buf, len);
  *out_actual = n;
  AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, n);
  // Window update: tell the peer promptly when the window opened
  // significantly (BSD: two MSS or half the buffer).
  uint32_t window_after = TcpReceiveWindow(pcb);
  if (window_after - window_before >= 2u * pcb->mss ||
      window_after - window_before >= pcb->rcv.hiwat / 2) {
    TcpOutput(pcb, /*force_ack=*/true);
  }
  return Error::kOk;
}

Error NetStack::SoSendTo(BsdSocket* so, const void* buf, size_t len,
                         const SockAddr& to, size_t* out_actual) {
  *out_actual = 0;
  if (so->type() != SockType::kDgram) {
    return Error::kNotImpl;
  }
  UdpPcb* pcb = so->udp();
  MBuf* chain = pool_.FromData(buf, len);
  Error err = UdpOutput(pcb, to, chain);
  if (Ok(err)) {
    *out_actual = len;
  }
  return err;
}

Error NetStack::SoRecvFrom(BsdSocket* so, void* buf, size_t len, SockAddr* out_from,
                           size_t* out_actual) {
  *out_actual = 0;
  if (so->type() != SockType::kDgram) {
    return Error::kNotImpl;
  }
  UdpPcb* pcb = so->udp();
  while (pcb->rcv_queue.empty()) {
    if (so->nonblocking()) {
      return Error::kWouldBlock;
    }
    sleep_wakeup_.Sleep(&pcb->rcv_queue);
  }
  UdpPcb::Datagram dg = pcb->rcv_queue.front();
  pcb->rcv_queue.pop_front();
  size_t dg_len = MbufPool::ChainLength(dg.data);
  pcb->rcv_bytes -= dg_len;
  AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, dg_len);
  size_t n = dg_len < len ? dg_len : len;
  pool_.CopyData(dg.data, 0, n, buf);
  pool_.FreeChain(dg.data);
  *out_from = dg.from;
  *out_actual = n;  // excess datagram bytes are discarded, UDP style
  return Error::kOk;
}

Error NetStack::SoShutdown(BsdSocket* so, SockShutdown how) {
  if (so->type() != SockType::kStream) {
    return Error::kNotImpl;
  }
  TcpPcb* pcb = so->tcp();
  if (how == SockShutdown::kRead) {
    return Error::kOk;  // reads just see EOF; nothing on the wire
  }
  if (pcb->fin_queued) {
    return Error::kOk;
  }
  switch (pcb->state) {
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
      SoShutdownPcb(pcb);
      break;
    case TcpState::kSynSent:
    case TcpState::kListen:
      TcpSetState(pcb, TcpState::kClosed);
      break;
    default:
      break;
  }
  return Error::kOk;
}

void NetStack::SoDetach(BsdSocket* so) {
  if (so->type() == SockType::kDgram) {
    UdpPcb* pcb = so->udp();
    if (pcb == nullptr) {
      return;
    }
    AcctCreditRx(&pcb->rx_charged, pcb->acct_tag, pcb->rx_charged);
    for (auto& dg : pcb->rcv_queue) {
      pool_.FreeChain(dg.data);
    }
    UdpIndexRemove(pcb);
    udp_pcbs_.erase(pcb->self);
    return;
  }

  TcpPcb* pcb = so->tcp();
  if (pcb == nullptr) {
    return;
  }
  pcb->socket = nullptr;
  pcb->detached = true;

  // A dying listener orphans its not-yet-accepted children: half-open ones
  // are torn down immediately, established ones get an orderly FIN close.
  if (pcb->state == TcpState::kListen || !pcb->accept_queue.empty() ||
      !pcb->syn_queue.empty()) {
    for (TcpPcb* child : pcb->syn_queue) {
      child->detached = true;
      child->listener = nullptr;
      SoShutdownPcb(child);  // SYN_RCVD drops straight to CLOSED
      TcpCloseDone(child);
    }
    pcb->syn_queue.clear();
    for (TcpPcb* child : pcb->accept_queue) {
      child->detached = true;
      child->listener = nullptr;
      SoShutdownPcb(child);
      if (child->state == TcpState::kClosed) {
        TcpCloseDone(child);  // already dead: free it now
      }
    }
    pcb->accept_queue.clear();
    pcb->state = TcpState::kClosed;
    TcpCloseDone(pcb);
    return;
  }

  // Orderly close: queue our FIN and let the state machine run in the
  // background; the pcb frees itself on reaching CLOSED (§6.2.10 notes the
  // original OSKit simply rebooted here — we do the clean thing).  One
  // already in TIME_WAIT waits out the rest of 2MSL as a record.
  SoShutdownPcb(pcb);
  if (pcb->state == TcpState::kClosed) {
    TcpCloseDone(pcb);
  } else {
    TcpRetireTimeWait(pcb);
  }
}

void NetStack::SoShutdownPcb(TcpPcb* pcb) {
  switch (pcb->state) {
    case TcpState::kEstablished:
      pcb->fin_queued = true;
      TcpSetState(pcb, TcpState::kFinWait1);
      TcpOutput(pcb, false);
      break;
    case TcpState::kCloseWait:
      pcb->fin_queued = true;
      TcpSetState(pcb, TcpState::kLastAck);
      TcpOutput(pcb, false);
      break;
    case TcpState::kSynSent:
    case TcpState::kSynReceived:
      pcb->state = TcpState::kClosed;
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// The COM socket object
// ---------------------------------------------------------------------------

BsdSocket::BsdSocket(NetStack* stack, SockType type) : stack_(stack), type_(type) {
  if (type == SockType::kStream) {
    auto pcb = std::make_unique<TcpPcb>();
    pcb->socket = this;
    tcp_ = stack->AddTcpPcb(std::move(pcb));
    stack->TcpBindWheelTimers(tcp_);
  } else {
    auto pcb = std::make_unique<UdpPcb>();
    pcb->socket = this;
    udp_ = stack->AddUdpPcb(std::move(pcb));
  }
}

BsdSocket::BsdSocket(NetStack* stack, TcpPcb* adopt)
    : stack_(stack), type_(SockType::kStream), tcp_(adopt) {
  adopt->socket = this;
}

void BsdSocket::OnLastRelease() {
  // Detach from the stack before self-destruction.
  stack_->SoDetach(this);
  tcp_ = nullptr;
  udp_ = nullptr;
}

Error BsdSocket::SetNonBlocking(bool on) {
  nonblocking_ = on;
  return Error::kOk;
}

Error BsdSocket::AcceptBatch(SockAddr* out_peers, Socket** out_sockets,
                             size_t capacity, size_t* out_count) {
  return stack_->SoAcceptBatch(this, out_peers, out_sockets, capacity,
                               out_count);
}

Error BsdSocket::Bind(const SockAddr& addr) { return stack_->SoBind(this, addr); }
Error BsdSocket::Connect(const SockAddr& addr) { return stack_->SoConnect(this, addr); }
Error BsdSocket::Listen(int backlog) { return stack_->SoListen(this, backlog); }

Error BsdSocket::Accept(SockAddr* out_peer, Socket** out_socket) {
  *out_socket = nullptr;
  TcpPcb* child = nullptr;
  Error err = stack_->SoAccept(this, out_peer, &child);
  if (!Ok(err)) {
    return err;
  }
  // Wrap the accepted connection in a socket object that adopts the pcb
  // directly (no throwaway pcb to build and tear down per accept).
  *out_socket = new BsdSocket(stack_, child);
  return Error::kOk;
}

Error BsdSocket::Send(const void* buf, size_t amount, size_t* out_actual) {
  return stack_->SoSend(this, buf, amount, out_actual);
}

Error BsdSocket::Recv(void* buf, size_t amount, size_t* out_actual) {
  return stack_->SoRecv(this, buf, amount, out_actual);
}

Error BsdSocket::SendTo(const void* buf, size_t amount, const SockAddr& to,
                        size_t* out_actual) {
  return stack_->SoSendTo(this, buf, amount, to, out_actual);
}

Error BsdSocket::RecvFrom(void* buf, size_t amount, SockAddr* out_from,
                          size_t* out_actual) {
  return stack_->SoRecvFrom(this, buf, amount, out_from, out_actual);
}

Error BsdSocket::SendBufIo(BufIoVec* src, off_t64 offset, size_t amount,
                           size_t* out_actual) {
  return stack_->SoSendBufIo(this, src, offset, amount, out_actual);
}

Error BsdSocket::Shutdown(SockShutdown how) { return stack_->SoShutdown(this, how); }

Error BsdSocket::GetSockName(SockAddr* out_addr) {
  if (type_ == SockType::kStream) {
    out_addr->addr = tcp_->laddr;
    out_addr->port = tcp_->lport;
  } else {
    out_addr->addr = udp_->laddr;
    out_addr->port = udp_->lport;
  }
  return Error::kOk;
}

Error BsdSocket::GetPeerName(SockAddr* out_addr) {
  if (type_ == SockType::kStream) {
    if (tcp_->state != TcpState::kEstablished && tcp_->state != TcpState::kCloseWait) {
      return Error::kNotConn;
    }
    out_addr->addr = tcp_->faddr;
    out_addr->port = tcp_->fport;
    return Error::kOk;
  }
  if (!udp_->connected) {
    return Error::kNotConn;
  }
  out_addr->addr = udp_->faddr;
  out_addr->port = udp_->fport;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// The factory
// ---------------------------------------------------------------------------

namespace {

class BsdSocketFactory final : public ComObject<BsdSocketFactory, SocketFactory> {
 public:
  explicit BsdSocketFactory(NetStack* stack) : stack_(stack) {}

  Error Create(SockDomain domain, SockType type, Socket** out_socket) override {
    *out_socket = nullptr;
    if (domain != SockDomain::kInet) {
      return Error::kProtoNoSupport;
    }
    if (type != SockType::kStream && type != SockType::kDgram) {
      return Error::kProtoNoSupport;
    }
    *out_socket = new BsdSocket(stack_, type);
    return Error::kOk;
  }

 private:
  friend class RefCounted<BsdSocketFactory>;
  ~BsdSocketFactory() = default;

  NetStack* stack_;
};

}  // namespace

ComPtr<SocketFactory> NetStack::CreateSocketFactory() {
  return ComPtr<SocketFactory>(new BsdSocketFactory(this));
}

}  // namespace oskit::net
