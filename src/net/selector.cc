// NetSelector implementation, socket readiness evaluation, and the kmon
// netstat dump.  Lives here (not socket.cc) so everything that needs the
// complete BsdSelector type — including ~BsdSocket — is in one place.

#include "src/net/selector.h"

#include <cstdio>

namespace oskit::net {

// ---------------------------------------------------------------------------
// Readiness evaluation
// ---------------------------------------------------------------------------

uint32_t NetStack::SoReadiness(BsdSocket* so) {
  uint32_t r = 0;
  if (so->type_ == SockType::kDgram) {
    UdpPcb* pcb = so->udp_;
    if (pcb == nullptr) {
      return kNetError;
    }
    if (!pcb->rcv_queue.empty()) {
      r |= kNetReadable;
    }
    r |= kNetWritable;  // UDP output never parks the caller
    return r;
  }
  TcpPcb* pcb = so->tcp_;
  if (pcb == nullptr) {
    return kNetError;
  }
  if (pcb->state == TcpState::kListen) {
    if (!pcb->accept_queue.empty()) {
      r |= kNetReadable;
    }
    return r;
  }
  // Readable: data queued, or any condition that makes Recv return without
  // parking (peer FIN -> EOF, dead connection -> error/EOF).
  if (pcb->rcv.cc > 0 || pcb->peer_fin_seen || pcb->state == TcpState::kClosed) {
    r |= kNetReadable;
  }
  if ((pcb->state == TcpState::kEstablished ||
       pcb->state == TcpState::kCloseWait) &&
      !pcb->fin_queued && pcb->snd.Space() > 0) {
    r |= kNetWritable;
  }
  if (pcb->so_error != Error::kOk || pcb->state == TcpState::kClosed) {
    r |= kNetError;
  }
  return r;
}

void NetStack::SoNotify(BsdSocket* so) {
  if (so == nullptr || so->selector_ == nullptr) {
    return;
  }
  so->selector_->SocketReady(so);
}

// ---------------------------------------------------------------------------
// BsdSelector
// ---------------------------------------------------------------------------

BsdSelector::BsdSelector(NetStack* stack) : stack_(stack) {
  stack_->selectors_.push_back(this);
}

BsdSelector::~BsdSelector() {
  for (auto& [so, reg] : regs_) {
    so->selector_ = nullptr;
  }
  stack_->counters_.select_registered -= regs_.size();
  auto& v = stack_->selectors_;
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (*it == this) {
      v.erase(it);
      break;
    }
  }
}

Error BsdSelector::Add(Socket* socket, uint32_t interest, bool edge,
                       void* token) {
  // Only a BsdSocket of this stack can register; any other Socket
  // implementation (a wrapper, another stack's socket) is rejected.
  auto* so = dynamic_cast<BsdSocket*>(socket);
  if (so == nullptr || so->stack_ != stack_) {
    return Error::kInval;
  }
  if (so->selector_ != nullptr) {
    return Error::kBusy;
  }
  so->selector_ = this;
  regs_.emplace(so, Reg{interest, edge, token});
  ++stack_->counters_.select_adds;
  ++stack_->counters_.select_registered;
  // An already-ready socket is reported by the next Wait without needing a
  // fresh event.
  SocketReady(so);
  return Error::kOk;
}

Error BsdSelector::Modify(Socket* socket, uint32_t interest, bool edge) {
  auto it = regs_.find(dynamic_cast<BsdSocket*>(socket));
  if (it == regs_.end()) {
    return Error::kInval;
  }
  it->second.interest = interest;
  it->second.edge = edge;
  // A widened mask may make the socket interesting right now.
  SocketReady(it->first);
  return Error::kOk;
}

Error BsdSelector::Remove(Socket* socket) {
  auto* so = dynamic_cast<BsdSocket*>(socket);
  auto it = regs_.find(so);
  if (it == regs_.end()) {
    return Error::kInval;
  }
  so->selector_ = nullptr;
  DropRegistration(it);
  return Error::kOk;
}

Error BsdSelector::Wait(NetReadyEvent* out_events, size_t capacity, bool block,
                        size_t* out_count) {
  *out_count = 0;
  if (out_events == nullptr || capacity == 0) {
    return Error::kInval;
  }
  for (;;) {
    size_t n = Harvest(out_events, capacity);
    if (n > 0 || !block) {
      *out_count = n;
      stack_->counters_.select_harvested += n;
      return Error::kOk;
    }
    stack_->sleep_wakeup_.Sleep(this);
    ++stack_->counters_.select_wakeups;
  }
}

size_t BsdSelector::Harvest(NetReadyEvent* out, size_t capacity) {
  size_t n = 0;
  // Scan only what was queued at entry: level-triggered re-enqueues land
  // beyond this bound, so every queued socket gets a turn before any gets
  // a second one.
  size_t scan = ready_.size();
  while (scan-- > 0 && n < capacity) {
    BsdSocket* so = ready_.front();
    ready_.pop_front();
    auto it = regs_.find(so);
    if (it == regs_.end()) {
      continue;  // defensive: unregistered entries are scrubbed eagerly
    }
    Reg& reg = it->second;
    reg.queued = false;
    uint32_t events = stack_->SoReadiness(so) & (reg.interest | kNetError);
    if (events == 0) {
      continue;  // readiness evaporated (e.g. drained by another harvest)
    }
    out[n].socket = so;
    out[n].token = reg.token;
    out[n].events = events;
    ++n;
    if (!reg.edge) {
      reg.queued = true;  // level-triggered: stays ready while the condition holds
      ready_.push_back(so);
    }
  }
  return n;
}

void BsdSelector::SocketReady(BsdSocket* so) {
  auto it = regs_.find(so);
  if (it == regs_.end()) {
    return;
  }
  Reg& reg = it->second;
  if (reg.queued) {
    return;
  }
  uint32_t events = stack_->SoReadiness(so) & (reg.interest | kNetError);
  if (events == 0) {
    return;
  }
  reg.queued = true;
  ready_.push_back(so);
  ++stack_->counters_.select_notifies;
  stack_->sleep_wakeup_.Wakeup(this);
}

void BsdSelector::SocketGone(BsdSocket* so) {
  auto it = regs_.find(so);
  if (it == regs_.end()) {
    return;
  }
  DropRegistration(it);
}

void BsdSelector::DropRegistration(
    std::unordered_map<BsdSocket*, Reg>::iterator it) {
  if (it->second.queued) {
    ScrubReady(it->first);
  }
  regs_.erase(it);
  ++stack_->counters_.select_removes;
  stack_->counters_.select_registered -= 1;
}

void BsdSelector::ScrubReady(BsdSocket* so) {
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    if (*it == so) {
      ready_.erase(it);  // the queued flag guarantees at most one entry
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Stack-side glue
// ---------------------------------------------------------------------------

ComPtr<NetSelector> NetStack::CreateSelector() {
  return ComPtr<NetSelector>(new BsdSelector(this));
}

BsdSocket::~BsdSocket() {
  if (selector_ != nullptr) {
    selector_->SocketGone(this);
    selector_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// kmon netstat
// ---------------------------------------------------------------------------

namespace {

void FormatEndpoint(char* buf, size_t cap, InetAddr a, uint16_t port) {
  std::snprintf(buf, cap, "%u.%u.%u.%u:%u", (a.value >> 24) & 255,
                (a.value >> 16) & 255, (a.value >> 8) & 255, a.value & 255,
                port);
}

}  // namespace

void NetStack::Netstat(const std::function<void(const char*)>& emit) {
  char line[256];
  // A TIME_WAIT record counts and prints as the pcb it replaced did.
  std::snprintf(line, sizeof line,
                "tcp_pcbs=%zu udp_pcbs=%zu conn_hash=%zu lport_buckets=%zu",
                tcp_pcbs_.size() + counters_.tcp_time_wait.value(),
                udp_pcbs_.size(), tcp_conn_.size(), tcp_by_lport_.size());
  emit(line);
  auto emit_conn = [&](const TcpEndpoints& ends, TcpState state, size_t snd,
                       size_t rcv) {
    char l[32];
    char f[32];
    FormatEndpoint(l, sizeof l, ends.laddr, ends.lport);
    FormatEndpoint(f, sizeof f, ends.faddr, ends.fport);
    std::snprintf(line, sizeof line, "tcp %-12s %-21s -> %-21s snd=%zu rcv=%zu",
                  TcpStateName(state), l, f, snd, rcv);
    emit(line);
  };
  for (const auto& pcb : tcp_pcbs_) {
    if (pcb->state == TcpState::kListen) {
      char l[32];
      FormatEndpoint(l, sizeof l, pcb->laddr, pcb->lport);
      std::snprintf(line, sizeof line,
                    "tcp %-12s %-21s synq=%zu acceptq=%zu backlog=%d",
                    TcpStateName(pcb->state), l, pcb->syn_queue.size(),
                    pcb->accept_queue.size(), pcb->backlog);
      emit(line);
    } else {
      emit_conn(*pcb, pcb->state, pcb->snd.cc, pcb->rcv.cc);
    }
  }
  for (const auto& [key, conn] : tcp_conn_) {
    if (const TcpTimeWait* tw = conn.time_wait()) {
      emit_conn(*tw, TcpState::kTimeWait, 0, 0);
    }
  }
  for (const auto& pcb : udp_pcbs_) {
    char l[32];
    char f[32];
    FormatEndpoint(l, sizeof l, pcb->laddr, pcb->lport);
    FormatEndpoint(f, sizeof f, pcb->faddr, pcb->fport);
    std::snprintf(line, sizeof line, "udp %-12s %-21s -> %-21s rcvq=%zu", "-",
                  l, f, pcb->rcv_queue.size());
    emit(line);
  }
  std::snprintf(line, sizeof line,
                "wheel now=%llu armed=%llu fired=%llu cascades=%llu",
                static_cast<unsigned long long>(wheel_.now()),
                static_cast<unsigned long long>(wheel_.armed_count()),
                static_cast<unsigned long long>(wheel_.fired()),
                static_cast<unsigned long long>(wheel_.cascades()));
  emit(line);
  for (const BsdSelector* sel : selectors_) {
    std::snprintf(line, sizeof line, "selector regs=%zu ready=%zu",
                  sel->registered(), sel->ready_depth());
    emit(line);
  }
  std::snprintf(
      line, sizeof line,
      "established=%llu peak=%llu listen_overflows=%llu port_exhausted=%llu",
      static_cast<unsigned long long>(counters_.tcp_established),
      static_cast<unsigned long long>(counters_.tcp_established_peak),
      static_cast<unsigned long long>(counters_.tcp_listen_overflows),
      static_cast<unsigned long long>(counters_.port_exhausted));
  emit(line);
}

}  // namespace oskit::net
