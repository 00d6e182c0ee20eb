#include "src/dev/linux/linux_glue.h"

#include <cstring>

#include "src/base/panic.h"
#include "src/libc/format.h"

namespace oskit::linuxdev {

namespace {
// How often the RX watchdog looks for frames stranded by a lost interrupt.
constexpr uint64_t kRxWatchdogNs = 10 * 1000 * 1000;  // 10 ms
}  // namespace

// ---------------------------------------------------------------------------
// SkBuffIo
// ---------------------------------------------------------------------------

SkBuffIo::~SkBuffIo() {
  skb_->oskit_bufio = nullptr;
  kfree_skb(kenv_, skb_);
}

Error SkBuffIo::Query(const Guid& iid, void** out) {
  return ComObject::Query(iid == kSkBuffIoImplIid ? BufIo::kIid : iid, out);
}

Error SkBuffIo::Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) {
  *out_actual = 0;
  Error err = ClampRange(skb_->len, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  std::memcpy(buf, skb_->data + offset, amount);
  *out_actual = amount;
  return Error::kOk;
}

Error SkBuffIo::Write(const void* buf, off_t64 offset, size_t amount,
                      size_t* out_actual) {
  *out_actual = 0;
  Error err = ClampRange(skb_->len, offset, &amount);
  if (!Ok(err)) {
    return err;
  }
  std::memcpy(skb_->data + offset, buf, amount);
  *out_actual = amount;
  return Error::kOk;
}

Error SkBuffIo::GetSize(off_t64* out_size) {
  *out_size = skb_->len;
  return Error::kOk;
}

Error SkBuffIo::Map(void** out_addr, off_t64 offset, size_t amount) {
  // An skbuff is always contiguous: mapping always succeeds in bounds.
  Error err = CheckWindow(skb_->len, offset, amount);
  if (!Ok(err)) {
    return err;
  }
  *out_addr = skb_->data + offset;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// LinuxEtherDev
// ---------------------------------------------------------------------------

namespace {

// kmalloc/kfree emulation over the fdev osenv: network buffers must be
// DMA-reachable on the simulated platform, like real ISA-era Linux.
void* GlueKmalloc(void* ctx, size_t size) {
  auto* env = static_cast<FdevEnv*>(ctx);
  return env->mem_alloc(env->ctx, size, FdevEnv::kDmaReachable);
}

void GlueKfree(void* ctx, void* ptr, size_t size) {
  auto* env = static_cast<FdevEnv*>(ctx);
  env->mem_free(env->ctx, ptr, size);
}

// The send-side NetIo half of the §5 callback exchange.
class LinuxSendNetIo final : public ComObject<LinuxSendNetIo, NetIo> {
 public:
  explicit LinuxSendNetIo(LinuxEtherDev* dev) : dev_(dev) { dev->AddRef(); }

  Error Push(BufIo* packet, size_t size) override { return dev_->Transmit(packet, size); }

 private:
  friend class RefCounted<LinuxSendNetIo>;
  ~LinuxSendNetIo() { dev_->Release(); }

  LinuxEtherDev* dev_;
};

}  // namespace

LinuxEtherDev::LinuxEtherDev(const FdevEnv& env, NicHw* hw, std::string name)
    : env_(RequireTimers(env)), name_(std::move(name)),
      trace_(trace::Required(env.trace)) {
  trace_binding_.Bind(&trace_->registry,
                      {{"glue.send.native_passthrough", &counters_.native_passthrough},
                       {"glue.send.fake_skbuff", &counters_.fake_skbuff},
                       {"glue.send.sg_frames", &counters_.sg_frames},
                       {"glue.send.sg_segments", &counters_.sg_segments},
                       {"glue.send.copied", &counters_.copied},
                       {"glue.send.copied_bytes", &counters_.copied_bytes},
                       {"glue.recv.push_errors", &counters_.rx_push_errors},
                       {"glue.recv.oom_drops", &counters_.rx_oom_drops},
                       {"glue.recov.rx_watchdog",
                        &counters_.rx_watchdog_recoveries},
                       {"glue.rx.poll.polls", &counters_.rx_polls},
                       {"glue.rx.poll.frames", &counters_.rx_poll_frames},
                       {"glue.rx.poll.budget_exhausted",
                        &counters_.rx_poll_budget_exhausted},
                       {"glue.rx.poll.reenable_races",
                        &counters_.rx_poll_reenable_races}});
  libc::Snprintf(dev_.name, sizeof(dev_.name), "%s", name_.c_str());
  dev_.kenv.kmalloc = &GlueKmalloc;
  dev_.kenv.kfree = &GlueKfree;
  dev_.kenv.ctx = &env_;
  int rc = simnic_probe(&dev_, hw);
  OSKIT_ASSERT_MSG(rc == 0, "simnic probe failed");
}

LinuxEtherDev::~LinuxEtherDev() {
  CancelRxWatchdog();
  CancelRxPollEvents();
  if (dev_.opened) {
    env_.irq_detach(env_.ctx, dev_.irq);
    dev_.stop(&dev_);
  }
}

Error LinuxEtherDev::GetInfo(DeviceInfo* out_info) {
  out_info->name = name_.c_str();
  out_info->description = "Linux 2.0-style simulated Ethernet (simnic)";
  out_info->vendor = "linux";
  return Error::kOk;
}

void LinuxEtherDev::NetifRxThunk(void* ctx, linux_device* dev, sk_buff* skb) {
  auto* self = static_cast<LinuxEtherDev*>(ctx);
  if (!self->client_recv_) {
    kfree_skb(dev->kenv, skb);
    return;
  }
  // Export the skbuff as a COM bufio object WITHOUT copying (§4.7.3): the
  // wrapper owns the skbuff; the client takes references if it keeps it.
  size_t len = skb->len;
  ComPtr<SkBuffIo> io(new SkBuffIo(dev->kenv, skb));
  Error err = self->client_recv_->Push(io.get(), len);
  if (!Ok(err)) {
    // The client refused the frame (typically mbuf exhaustion); the frame
    // is dropped here, cleanly, and the stack above retransmits.
    ++self->counters_.rx_push_errors;
  }
}

void LinuxEtherDev::SyncRxStats() {
  uint64_t dropped = dev_.stats.rx_dropped;
  if (dropped > last_rx_dropped_) {
    counters_.rx_oom_drops += dropped - last_rx_dropped_;
    last_rx_dropped_ = dropped;
  }
}

void LinuxEtherDev::ArmRxWatchdog() {
  watchdog_token_ =
      env_.timer_start(env_.ctx, kRxWatchdogNs, [this] { RxWatchdogTick(); });
}

void LinuxEtherDev::RxWatchdogTick() {
  watchdog_token_ = nullptr;
  if (!dev_.opened) {
    return;
  }
  // Frames waiting with a poll or re-enable pass already queued are being
  // handled, not stranded; only recover when nothing is in flight.
  if (dev_.priv->RxPending() && !RxPollInFlight()) {
    // Frames are sitting in the ring with no interrupt in sight: the IRQ
    // was lost (under coalescing, a lost IRQ strands the whole batch).
    // Run the handler by hand, like a Linux driver's dev->tx/rx timeout
    // path — through the poll loop when polling is on, so recovery keeps
    // the budget and batching discipline.
    ++counters_.rx_watchdog_recoveries;
    if (rx_poll_) {
      dev_.priv->EnableRxInterrupt(false);
      ScheduleRxPoll(0);
    } else {
      simnic_interrupt(&dev_);
      SyncRxStats();
    }
  }
  ArmRxWatchdog();
}

void LinuxEtherDev::CancelRxWatchdog() {
  if (watchdog_token_ != nullptr) {
    env_.timer_cancel(env_.ctx, watchdog_token_);
    watchdog_token_ = nullptr;
  }
}

// ---- Polled receive (NAPI-style) ----

void LinuxEtherDev::RxIrq() {
  if (!rx_poll_) {
    // 1997 behaviour: drain the whole ring at interrupt level, one IRQ per
    // frame arriving later.
    simnic_interrupt(&dev_);
    SyncRxStats();
    return;
  }
  if (RxPollInFlight()) {
    return;  // spurious or raced IRQ: a drain is already on its way
  }
  // Mask further RX interrupts and defer the drain to the budgeted poll.
  dev_.priv->EnableRxInterrupt(false);
  ScheduleRxPoll(kRxSoftirqDelayNs);
}

void LinuxEtherDev::ScheduleRxPoll(uint64_t delay_ns) {
  poll_token_ =
      env_.timer_start(env_.ctx, delay_ns, [this] { RxPollDispatch(); });
}

void LinuxEtherDev::RxPollDispatch() {
  poll_token_ = nullptr;
  if (!dev_.opened) {
    return;
  }
  ++counters_.rx_polls;
  if (batch_recv_) {
    batch_recv_->BeginBatch();
  }
  int n = simnic_poll(&dev_, kRxPollBudget);
  counters_.rx_poll_frames += static_cast<uint64_t>(n);
  SyncRxStats();
  if (batch_recv_) {
    batch_recv_->EndBatch();
  }
  if (n >= kRxPollBudget && dev_.priv->RxPending()) {
    // Budget exhausted with work left: stay in polled mode (interrupts
    // remain masked) and take another pass.
    ++counters_.rx_poll_budget_exhausted;
    ScheduleRxPoll(kRxSoftirqDelayNs);
    return;
  }
  reenable_token_ =
      env_.timer_start(env_.ctx, kRxReenableDelayNs, [this] { RxReenable(); });
}

void LinuxEtherDev::RxReenable() {
  reenable_token_ = nullptr;
  if (!dev_.opened) {
    return;
  }
  dev_.priv->EnableRxInterrupt(true);
  // THE race: a frame that arrived after the poll's final RxPending() check
  // and before this re-enable raised no interrupt, and re-enabling does not
  // replay it.  Without this re-check it strands until the watchdog's 10 ms
  // sweep — the classic NAPI exit bug.
  if (dev_.priv->RxPending()) {
    ++counters_.rx_poll_reenable_races;
    dev_.priv->EnableRxInterrupt(false);
    ScheduleRxPoll(kRxSoftirqDelayNs);
  }
}

void LinuxEtherDev::CancelRxPollEvents() {
  if (poll_token_ != nullptr) {
    env_.timer_cancel(env_.ctx, poll_token_);
    poll_token_ = nullptr;
  }
  if (reenable_token_ != nullptr) {
    env_.timer_cancel(env_.ctx, reenable_token_);
    reenable_token_ = nullptr;
  }
}

Error LinuxEtherDev::Open(NetIo* recv, NetIo** out_send) {
  if (dev_.opened) {
    return Error::kBusy;
  }
  client_recv_ = ComPtr<NetIo>::Retain(recv);
  // Discover the client's batch face (§4.4.2: extension by Query) so the
  // poll loop can bracket a burst; a plain NetIo client gets per-frame
  // delivery, unchanged.
  void* batch_raw = nullptr;
  if (Ok(recv->Query(NetIoBatch::kIid, &batch_raw))) {
    batch_recv_ = ComPtr<NetIoBatch>(static_cast<NetIoBatch*>(batch_raw));
  }
  dev_.netif_rx = &LinuxEtherDev::NetifRxThunk;
  dev_.netif_rx_ctx = this;
  int rc = dev_.open(&dev_);
  if (rc != 0) {
    client_recv_.Reset();
    batch_recv_.Reset();
    return Error::kIo;
  }
  env_.irq_attach(env_.ctx, dev_.irq, [this] { RxIrq(); });
  ArmRxWatchdog();
  *out_send = new LinuxSendNetIo(this);
  return Error::kOk;
}

Error LinuxEtherDev::Close() {
  if (!dev_.opened) {
    return Error::kOk;
  }
  CancelRxWatchdog();
  CancelRxPollEvents();
  env_.irq_detach(env_.ctx, dev_.irq);
  dev_.stop(&dev_);
  client_recv_.Reset();
  batch_recv_.Reset();
  return Error::kOk;
}

Error LinuxEtherDev::GetAddr(EtherAddr* out_addr) {
  std::memcpy(out_addr->bytes, dev_.dev_addr, 6);
  return Error::kOk;
}

Error LinuxEtherDev::Transmit(BufIo* packet, size_t size) {
  if (!dev_.opened) {
    return Error::kNoDev;
  }
  if (size > kEtherMaxFrame) {
    return Error::kMsgSize;
  }

  void* mapped = nullptr;
  if (Ok(packet->Map(&mapped, 0, size))) {
    // Contiguous: manufacture a "fake" skbuff pointing directly at the
    // mapped data (§4.7.3), no copy; the driver consumes only the fake.  Our
    // own skbuff, recognised by implementation identity, is passed straight
    // through this way; any other buffer is a foreign one mapped.
    void* native = nullptr;
    if (Ok(packet->Query(kSkBuffIoImplIid, &native))) {
      static_cast<BufIo*>(native)->Release();
      ++counters_.native_passthrough;
    } else {
      ++counters_.fake_skbuff;
      trace_->recorder.Record(trace::EventType::kBufMap, "glue.send", size);
    }
    sk_buff* fake = dev_alloc_skb(dev_.kenv, 0);
    if (fake == nullptr) {
      packet->Unmap(mapped, 0, size);
      return Error::kNoMem;
    }
    fake->fake = true;
    fake->data = static_cast<uint8_t*>(mapped);
    fake->tail = fake->data + size;
    fake->len = static_cast<uint32_t>(size);
    dev_.hard_start_xmit(fake, &dev_);
    packet->Unmap(mapped, 0, size);
    return Error::kOk;
  }

  // Discontiguous foreign packet.  If the driver has gather DMA and the
  // object can publish its pieces (BufIoVec, discovered §4.4.2-style via
  // Query), transmit the segments directly — no copy, no flatten.
  if (dev_.hard_start_xmit_vec != nullptr) {
    void* vec_raw = nullptr;
    if (Ok(packet->Query(BufIoVec::kIid, &vec_raw))) {
      auto* vec = static_cast<BufIoVec*>(vec_raw);
      constexpr size_t kTxGather = 16;  // simnic DMA descriptor ring slots
      BufIoSegment segs[kTxGather];
      size_t count = 0;
      Error verr = vec->Vectors(segs, kTxGather, 0, size, &count);
      if (Ok(verr) && count > 0) {
        const uint8_t* chunks[kTxGather];
        size_t lens[kTxGather];
        for (size_t i = 0; i < count; ++i) {
          chunks[i] = segs[i].data;
          lens[i] = segs[i].len;
        }
        ++counters_.sg_frames;
        counters_.sg_segments += count;
        trace_->recorder.Record(trace::EventType::kBufMap, "glue.send.sg", size);
        dev_.hard_start_xmit_vec(chunks, lens, count, &dev_);
        vec->UnmapVectors(0, size);
        vec->Release();
        return Error::kOk;
      }
      vec->Release();
    }
  }

  // Last resort: allocate a normal skbuff and copy the data in — the
  // Table 1 send-path copy, now only a fallback.
  ++counters_.copied;
  counters_.copied_bytes += size;
  trace_->recorder.Record(trace::EventType::kBufCopy, "glue.send", size);
  sk_buff* skb = dev_alloc_skb(dev_.kenv, size);
  if (skb == nullptr) {
    return Error::kNoMem;
  }
  size_t actual = 0;
  Error err = packet->Read(skb_put(skb, size), 0, size, &actual);
  if (!Ok(err) || actual != size) {
    kfree_skb(dev_.kenv, skb);
    return Ok(err) ? Error::kIo : err;
  }
  dev_.hard_start_xmit(skb, &dev_);
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// Init / probe
// ---------------------------------------------------------------------------

Error InitLinuxEthernet(const FdevEnv& env, Machine* machine,
                        DeviceRegistry* registry) {
  int index = 0;
  for (const auto& nic : machine->nics()) {
    char name[8];
    libc::Snprintf(name, sizeof(name), "eth%d", index++);
    ComPtr<Device> device(new LinuxEtherDev(env, nic.get(), name));
    registry->Register(std::move(device));
  }
  return Error::kOk;
}

}  // namespace oskit::linuxdev
