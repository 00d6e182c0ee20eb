// NetStack core: construction, BSD sleep/wakeup emulation, sockbufs,
// driver bindings, Ethernet demux, and ARP.

#include "src/net/stack.h"

#include <cstring>

#include "src/base/panic.h"
#include "src/net/mbuf_bufio.h"

namespace oskit::net {

// ---------------------------------------------------------------------------
// BSD sleep/wakeup
// ---------------------------------------------------------------------------

namespace {

// The emulated "current process" (§4.7.5): manufactured on demand at entry
// to the component, alive only for the duration of the call.  In this C++
// rendering the manufactured proc is the EmulatedProc that Sleep() places on
// the sleeping thread's stack; this component-global pointer mirrors BSD's
// curproc and is saved/restored across blocking points exactly as the paper
// describes.
thread_local void* g_curproc = nullptr;

}  // namespace

void BsdSleepWakeup::Sleep(const void* chan) {
  ++sleeps_;
  if (recorder_ != nullptr) {
    recorder_->Record(trace::EventType::kSleep, "net",
                      reinterpret_cast<uintptr_t>(chan));
  }
  // Manufacture the "process" on the caller's stack (§4.7.5).
  EmulatedProc proc(env_);
  proc.chan = chan;
  size_t b = BucketOf(chan);
  proc.next = buckets_[b];
  buckets_[b] = &proc;

  // Save curproc across the blocking call, per the paper, so other threads
  // of control entering the component meanwhile don't trash it.
  void* saved_curproc = g_curproc;
  g_curproc = &proc;
  proc.record.Sleep();
  g_curproc = saved_curproc;

  // Unlink ourselves.
  EmulatedProc** link = &buckets_[b];
  while (*link != nullptr && *link != &proc) {
    link = &(*link)->next;
  }
  OSKIT_ASSERT_MSG(*link == &proc, "emulated proc vanished from event hash");
  *link = proc.next;
}

void BsdSleepWakeup::Wakeup(const void* chan) {
  ++wakeups_;
  if (recorder_ != nullptr) {
    recorder_->Record(trace::EventType::kWakeup, "net",
                      reinterpret_cast<uintptr_t>(chan));
  }
  for (EmulatedProc* p = buckets_[BucketOf(chan)]; p != nullptr; p = p->next) {
    if (p->chan == chan) {
      p->record.Wakeup();
    }
  }
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

NetStack::NetStack(SleepEnv* sleep_env, SimClock* clock, trace::TraceEnv* trace)
    : sleep_env_(sleep_env),
      clock_(clock),
      trace_(trace::ResolveTraceEnv(trace)),
      sleep_wakeup_(sleep_env, &trace_->recorder),
      epoch_(clock->Now()) {
  trace_binding_.Bind(
      &trace_->registry,
      {{"net.ip.in", &counters_.ip_in},
       {"net.ip.out", &counters_.ip_out},
       {"net.ip.bad_checksum", &counters_.ip_bad_checksum},
       {"net.ip.frags_in", &counters_.ip_frags_in},
       {"net.ip.reassembled", &counters_.ip_reassembled},
       {"net.ip.frag_out", &counters_.ip_frag_out},
       {"net.arp.in", &counters_.arp_in},
       {"net.arp.requests_out", &counters_.arp_requests_out},
       {"net.icmp.echo_in", &counters_.icmp_echo_in},
       {"net.udp.in", &counters_.udp_in},
       {"net.udp.out", &counters_.udp_out},
       {"net.udp.bad_checksum", &counters_.udp_bad_checksum},
       {"net.udp.no_port", &counters_.udp_no_port},
       {"net.tcp.in", &counters_.tcp_in},
       {"net.tcp.out", &counters_.tcp_out},
       {"net.tcp.bad_checksum", &counters_.tcp_bad_checksum},
       {"net.tcp.retransmits", &counters_.tcp_retransmits},
       {"net.tcp.fast_retransmits", &counters_.tcp_fast_retransmits},
       {"net.tcp.delayed_acks", &counters_.tcp_delayed_acks},
       {"net.tcp.rx_batches", &counters_.tcp_rx_batches},
       {"net.tcp.batched_outputs", &counters_.tcp_batched_outputs},
       {"net.tcp.ooo_segments", &counters_.tcp_ooo_segments},
       {"net.tcp.rst_out", &counters_.tcp_rst_out},
       {"net.tx.copied_bytes", &counters_.tx_copied_bytes},
       {"net.tx.sendfile_bytes", &counters_.tx_sendfile_bytes},
       {"net.tx.sendfile_fallback_bytes",
        &counters_.tx_sendfile_fallback_bytes},
       {"net.rx.alloc_drops", &counters_.rx_alloc_drops},
       {"net.tx.errors", &counters_.tx_errors},
       {"net.tcp.listen_overflows", &counters_.tcp_listen_overflows},
       {"net.tcp.syn_admission_shed", &counters_.tcp_syn_admission_shed},
       {"net.rx.quota_shed", &counters_.rx_quota_shed},
       {"net.port.exhausted", &counters_.port_exhausted},
       {"net.pcb.hash.hits", &counters_.pcb_hash_hits},
       {"net.pcb.hash.misses", &counters_.pcb_hash_misses},
       {"net.tcp.established", &counters_.tcp_established, /*gauge=*/true},
       {"net.tcp.established_peak", &counters_.tcp_established_peak,
        /*gauge=*/true},
       {"net.tcp.time_wait", &counters_.tcp_time_wait, /*gauge=*/true},
       {"net.timer.wheel.armed", &wheel_.armed_counter(), /*gauge=*/true},
       {"net.timer.wheel.fired", &wheel_.fired_counter()},
       {"net.timer.wheel.cascades", &wheel_.cascades_counter()},
       {"net.select.adds", &counters_.select_adds},
       {"net.select.removes", &counters_.select_removes},
       {"net.select.notifies", &counters_.select_notifies},
       {"net.select.wakeups", &counters_.select_wakeups},
       {"net.select.harvested", &counters_.select_harvested},
       {"net.select.registered", &counters_.select_registered, /*gauge=*/true},
       {"net.sleep.sleeps", &sleep_wakeup_.sleeps_counter()},
       {"net.sleep.wakeups", &sleep_wakeup_.wakeups_counter()}});
  ScheduleWheelTick();
}

NetStack::~NetStack() {
  shutting_down_ = true;
  clock_->Cancel(wheel_timer_);
  for (Iface& iface : ifaces_) {
    if (iface.dev) {
      iface.dev->Close();
    }
  }
  for (auto& [key, conn] : tcp_conn_) {
    delete conn.time_wait();
  }
  for (auto& pcb : tcp_pcbs_) {
    SbFlush(&pcb->snd);
    SbFlush(&pcb->rcv);
    for (auto& seg : pcb->reass) {
      pool_.FreeChain(seg.data);
    }
    pcb->reass.clear();
  }
  for (auto& pcb : udp_pcbs_) {
    for (auto& dg : pcb->rcv_queue) {
      pool_.FreeChain(dg.data);
    }
  }
  for (auto& [key, entry] : arp_) {
    if (entry.pending != nullptr) {
      pool_.FreeChain(entry.pending);
    }
  }
}

void NetStack::ScheduleWheelTick() {
  // The stack's one periodic event.  The tick about to run is the 500 ms
  // boundary on every fifth: expire stale IP reassembly queues there,
  // before the TCP timers due at that boundary fire.
  wheel_timer_ = clock_->ScheduleAfter(100 * kNsPerMs, [this] {
    if (shutting_down_) {
      return;
    }
    if ((wheel_.now() + 1) % 5 == 0) {
      FragTimeoutSweep();
    }
    wheel_.Tick();
    ScheduleWheelTick();
  });
}

// ---------------------------------------------------------------------------
// Sockbufs
// ---------------------------------------------------------------------------

void NetStack::SbAppend(SockBuf* sb, MBuf* chain) {
  size_t len = MbufPool::ChainLength(chain);
  if (sb->head == nullptr) {
    sb->head = chain;
  } else {
    sb->tail->next = chain;
  }
  MBuf* tail = chain;
  while (tail->next != nullptr) {
    tail = tail->next;
  }
  sb->tail = tail;
  sb->cc += len;
}

size_t NetStack::SbCopyOut(SockBuf* sb, void* dst, size_t len) {
  auto* out = static_cast<uint8_t*>(dst);
  size_t copied = 0;
  while (copied < len && sb->head != nullptr) {
    MBuf* m = sb->head;
    size_t n = m->len;
    if (n > len - copied) {
      n = len - copied;
    }
    std::memcpy(out + copied, m->data, n);
    copied += n;
    if (n == m->len) {
      sb->head = pool_.Free(m);
      if (sb->head == nullptr) {
        sb->tail = nullptr;
      }
    } else {
      m->data += n;
      m->len -= static_cast<uint32_t>(n);
    }
  }
  sb->cc -= copied;
  return copied;
}

void NetStack::SbDrop(SockBuf* sb, size_t len) {
  OSKIT_ASSERT(len <= sb->cc);
  sb->cc -= len;
  while (len > 0) {
    MBuf* m = sb->head;
    OSKIT_ASSERT(m != nullptr);
    if (len < m->len) {
      m->data += len;
      m->len -= static_cast<uint32_t>(len);
      break;
    }
    len -= m->len;
    sb->head = pool_.Free(m);
  }
  if (sb->head == nullptr) {
    sb->tail = nullptr;
  }
}

void NetStack::SbFlush(SockBuf* sb) {
  if (sb->head != nullptr) {
    pool_.FreeChain(sb->head);
  }
  sb->head = nullptr;
  sb->tail = nullptr;
  sb->cc = 0;
}

// ---------------------------------------------------------------------------
// Driver bindings
// ---------------------------------------------------------------------------

// The stack's receive-side NetIo handed to COM-bound drivers: the callback
// half of the §5 exchange.  It additionally implements NetIoBatch (the
// §4.4.2 extension idiom: same object, richer interface discovered via
// Query) so a polled driver can bracket a burst of frames and pay one TCP
// response pass for the lot.
class StackRecvNetIo final
    : public ComObject<StackRecvNetIo, NetIoBatch, NetIo> {
 public:
  StackRecvNetIo(NetStack* stack, int ifindex) : stack_(stack), ifindex_(ifindex) {}

  void BeginBatch() override { stack_->BeginRxBatch(); }
  void EndBatch() override { stack_->EndRxBatch(); }

  Error Push(BufIo* packet, size_t size) override {
    // Import the foreign packet: zero-copy when it maps (§4.7.3).
    if (stack_->fault_->ShouldFail("mbuf.rx_alloc")) {
      // Injected mbuf exhaustion at the import boundary: refuse the frame
      // cleanly — the driver keeps ownership and TCP above retransmits.
      ++stack_->mutable_counters().rx_alloc_drops;
      return Error::kNoMem;
    }
    MBuf* frame = MbufFromBufIo(&stack_->pool(), packet, size);
    if (frame == nullptr) {
      ++stack_->mutable_counters().rx_alloc_drops;
      return Error::kNoMem;
    }
    stack_->EtherInputMbuf(ifindex_, frame);
    return Error::kOk;
  }

 private:
  friend class RefCounted<StackRecvNetIo>;
  ~StackRecvNetIo() = default;

  NetStack* stack_;
  int ifindex_;
};

Error NetStack::OpenEtherIf(EtherDev* dev, int* out_ifindex) {
  Iface iface;
  iface.native = false;
  iface.dev = ComPtr<EtherDev>::Retain(dev);
  Error err = dev->GetAddr(&iface.mac);
  if (!Ok(err)) {
    return err;
  }
  int ifindex = static_cast<int>(ifaces_.size());
  ComPtr<StackRecvNetIo> recv(new StackRecvNetIo(this, ifindex));
  NetIo* tx = nullptr;
  err = dev->Open(recv.get(), &tx);
  if (!Ok(err)) {
    return err;
  }
  iface.tx = ComPtr<NetIo>(tx);
  ifaces_.push_back(std::move(iface));
  *out_ifindex = ifindex;
  return Error::kOk;
}

Error NetStack::OpenNativeIf(NativeEtherPort* port, int* out_ifindex) {
  Iface iface;
  iface.native = true;
  iface.port = port;
  iface.mac = port->mac();
  *out_ifindex = static_cast<int>(ifaces_.size());
  ifaces_.push_back(std::move(iface));
  return Error::kOk;
}

Error NetStack::IfConfig(int ifindex, InetAddr addr, InetAddr netmask) {
  if (ifindex < 0 || ifindex >= static_cast<int>(ifaces_.size())) {
    return Error::kInval;
  }
  Iface& iface = ifaces_[ifindex];
  iface.addr = addr;
  iface.netmask = netmask;
  iface.configured = true;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// Ethernet layer
// ---------------------------------------------------------------------------

void NetStack::EtherInputMbuf(int ifindex, MBuf* frame) {
  trace_->recorder.Record(trace::EventType::kPacketRx, "net.ether",
                          static_cast<uint64_t>(ifindex),
                          frame != nullptr ? frame->pkt_len : 0);
  frame = pool_.Pullup(frame, kEtherHeaderSize);
  if (frame == nullptr) {
    return;
  }
  EtherHeader eh = EtherHeader::Parse(frame->data);
  frame = pool_.TrimFront(frame, kEtherHeaderSize);
  switch (eh.type) {
    case kEtherTypeArp:
      ArpInput(ifindex, frame);
      break;
    case kEtherTypeIp:
      IpInput(ifindex, frame);
      break;
    default:
      pool_.FreeChain(frame);
      break;
  }
}

Error NetStack::EtherOutput(int ifindex, const EtherAddr& dst, uint16_t type,
                            MBuf* payload) {
  Iface& iface = ifaces_[ifindex];
  MBuf* frame = pool_.Prepend(payload, kEtherHeaderSize);
  EtherHeader eh;
  eh.dst = dst;
  eh.src = iface.mac;
  eh.type = type;
  eh.Serialize(frame->data);
  trace_->recorder.Record(trace::EventType::kPacketTx, "net.ether",
                          static_cast<uint64_t>(ifindex), frame->pkt_len);

  if (iface.native) {
    // Baseline path: the BSD-idiom driver takes the chain as-is.
    iface.port->Output(frame);
    return Error::kOk;
  }
  // OSKit path: the chain leaves the component as an opaque buffer object
  // (§4.7.3).  The wrapper also speaks BufIoVec; the driver glue alone
  // decides whether to gather, map or copy it.
  size_t len = frame->pkt_len;
  auto bufio = MbufBufIo::Wrap(&pool_, frame);
  Error err = iface.tx->Push(bufio.get(), len);
  if (!Ok(err)) {
    // The driver refused the frame (OOM, injected fault).  Count it — the
    // frame is reclaimed by the wrapper, and the protocols above recover by
    // retransmission.
    ++counters_.tx_errors;
    trace_->recorder.Record(trace::EventType::kMark, "net.tx.error",
                            static_cast<uint64_t>(ifindex),
                            static_cast<uint64_t>(err));
  }
  return err;
}

// ---------------------------------------------------------------------------
// ARP
// ---------------------------------------------------------------------------

void NetStack::ArpInput(int ifindex, MBuf* packet) {
  ++counters_.arp_in;
  packet = pool_.Pullup(packet, kArpPacketSize);
  if (packet == nullptr) {
    return;
  }
  ArpPacket arp;
  if (!ArpPacket::Parse(packet->data, packet->len, &arp)) {
    pool_.FreeChain(packet);
    return;
  }
  pool_.FreeChain(packet);

  Iface& iface = ifaces_[ifindex];

  // Learn/refresh the sender's mapping; release anything queued on it.
  ArpEntry& entry = arp_[arp.sender_ip.value];
  entry.mac = arp.sender_mac;
  entry.resolved = true;
  entry.expires = clock_->Now() + 20 * 60 * kNsPerSec;
  if (entry.pending != nullptr) {
    MBuf* queued = entry.pending;
    entry.pending = nullptr;
    EtherOutput(ifindex, entry.mac, kEtherTypeIp, queued);
  }

  if (arp.op == kArpOpRequest && iface.configured && arp.target_ip == iface.addr) {
    SendArp(ifindex, kArpOpReply, arp.sender_mac, arp.sender_ip,
            arp.sender_mac);
  }
}

void NetStack::SendArp(int ifindex, uint16_t op, const EtherAddr& target_mac,
                       InetAddr target_ip, const EtherAddr& dst) {
  Iface& iface = ifaces_[ifindex];
  ArpPacket packet;
  packet.op = op;
  packet.sender_mac = iface.mac;
  packet.sender_ip = iface.addr;
  packet.target_mac = target_mac;
  packet.target_ip = target_ip;
  MBuf* out = pool_.GetHeaderAligned(kArpPacketSize);
  packet.Serialize(out->data);
  EtherOutput(ifindex, dst, kEtherTypeArp, out);
}

void NetStack::SendArpRequest(int ifindex, InetAddr target) {
  ++counters_.arp_requests_out;
  SendArp(ifindex, kArpOpRequest, EtherAddr{}, target, kEtherBroadcast);
}

void NetStack::IpSendViaIface(int ifindex, InetAddr next_hop, MBuf* datagram) {
  ArpEntry& entry = arp_[next_hop.value];
  if (entry.resolved && clock_->Now() < entry.expires) {
    EtherOutput(ifindex, entry.mac, kEtherTypeIp, datagram);
    return;
  }
  // Unresolved: queue (replacing any previous straggler, BSD style) and ask.
  if (entry.pending != nullptr) {
    pool_.FreeChain(entry.pending);
  }
  entry.pending = datagram;
  entry.resolved = false;
  SendArpRequest(ifindex, next_hop);
}

// ---------------------------------------------------------------------------
// Per-principal accounting plumbing (SoAccounting)
// ---------------------------------------------------------------------------

bool NetStack::AcctChargeRx(BsdSocket* owner, size_t* rx_charged, void** tag,
                            size_t bytes) {
  if (accounting_ == nullptr) {
    return true;
  }
  if (!accounting_->ChargeRx(static_cast<Socket*>(owner), tag, bytes)) {
    ++counters_.rx_quota_shed;
    return false;
  }
  *rx_charged += bytes;
  return true;
}

void NetStack::AcctCreditRx(size_t* rx_charged, void* tag, size_t bytes) {
  if (accounting_ == nullptr || *rx_charged == 0) {
    return;
  }
  size_t n = bytes < *rx_charged ? bytes : *rx_charged;
  *rx_charged -= n;
  accounting_->CreditRx(tag, n);
}

}  // namespace oskit::net
