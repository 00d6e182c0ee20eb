#include "src/dev/freebsd/freebsd_ether.h"

#include <cstring>

#include "src/base/panic.h"

namespace oskit::freebsddev {

namespace {
// How often the RX watchdog looks for frames stranded by a lost interrupt.
constexpr uint64_t kRxWatchdogNs = 10 * 1000 * 1000;  // 10 ms

// The release hook of a grafted RX buffer: the last free of its mbufs
// returns it to the NIC's free list, whether or not the NIC is still there.
void ReleaseRxBuffer(void* ctx, uint8_t* /*buf*/, size_t /*size*/) {
  delete static_cast<NicHw::RxBuffer*>(ctx);
}

}  // namespace

BsdEtherDriver::BsdEtherDriver(const FdevEnv& env, NicHw* hw, net::NetStack* stack)
    : env_(RequireTimers(env)), hw_(hw), stack_(stack),
      fault_(env.fault) {
  trace::TraceEnv* tenv = trace::Required(env_.trace);
  trace_binding_.Bind(&tenv->registry,
                      {{"bsd.tx.linearized", &tx_linearized_},
                       {"bsd.rx.alloc_drops", &rx_alloc_drops_},
                       {"bsd.rx.watchdog_recoveries", &rx_watchdog_recoveries_}});
}

BsdEtherDriver::~BsdEtherDriver() {
  CancelRxWatchdog();
  if (attached_) {
    env_.irq_detach(env_.ctx, hw_->irq());
    hw_->EnableRxInterrupt(false);
  }
}

Error BsdEtherDriver::Attach() {
  Error err = stack_->OpenNativeIf(this, &ifindex_);
  if (!Ok(err)) {
    return err;
  }
  env_.irq_attach(env_.ctx, hw_->irq(), [this] { Interrupt(); });
  hw_->EnableRxInterrupt(true);
  attached_ = true;
  ArmRxWatchdog();
  return Error::kOk;
}

void BsdEtherDriver::Output(net::MBuf* frame) {
  // Gather DMA straight from the chain: no software copy, the hardware
  // assembles the frame from the descriptor list.
  const uint8_t* chunks[kMaxGather];
  size_t lens[kMaxGather];
  size_t count = 0;
  bool overflow = false;
  for (net::MBuf* m = frame; m != nullptr; m = m->next) {
    if (m->len == 0) {
      continue;
    }
    if (count >= kMaxGather) {
      overflow = true;
      break;
    }
    chunks[count] = m->data;
    lens[count] = m->len;
    ++count;
  }
  // More fragments than descriptors: linearize through a bounce buffer,
  // the if_xl-style m_defrag fallback, instead of dying on an assert.
  uint8_t bounce[kEtherMaxFrame];
  if (overflow) {
    chunks[0] = bounce;
    lens[0] = 0;
    count = 1;
    for (net::MBuf* m = frame; m != nullptr; m = m->next) {
      OSKIT_ASSERT_MSG(lens[0] + m->len <= sizeof(bounce), "oversize frame");
      std::memcpy(bounce + lens[0], m->data, m->len);
      lens[0] += m->len;
    }
    ++tx_linearized_;
  }
  hw_->TxStart(chunks, lens, count);
  ++tx_frames_;
  stack_->pool().FreeChain(frame);
}

void BsdEtherDriver::Interrupt() {
  while (hw_->RxPending()) {
    NicHw::RxBufferPtr rx = hw_->RxTake();
    if (fault::ShouldFail(fault_, "mbuf.rx_alloc")) {
      // Receive-buffer exhaustion: the frame goes back to the NIC's free
      // list (the ring has advanced) and the drop is counted; TCP above
      // retransmits.
      ++rx_alloc_drops_;
      continue;
    }
    // Graft the NIC's buffer into an mbuf as external storage (BSD M_EXT):
    // no cluster, no second copy.
    net::MBuf* m =
        stack_->pool().GetExternal(rx->bytes, rx->len, &ReleaseRxBuffer, rx.get());
    rx.release();
    m->pkt_len = m->len;
    ++rx_frames_;
    stack_->EtherInputMbuf(ifindex_, m);
  }
}

void BsdEtherDriver::ArmRxWatchdog() {
  watchdog_token_ =
      env_.timer_start(env_.ctx, kRxWatchdogNs, [this] { RxWatchdogTick(); });
}

void BsdEtherDriver::RxWatchdogTick() {
  watchdog_token_ = nullptr;
  if (!attached_) {
    return;
  }
  if (hw_->RxPending()) {
    ++rx_watchdog_recoveries_;
    Interrupt();
  }
  ArmRxWatchdog();
}

void BsdEtherDriver::CancelRxWatchdog() {
  if (watchdog_token_ != nullptr) {
    env_.timer_cancel(env_.ctx, watchdog_token_);
    watchdog_token_ = nullptr;
  }
}

}  // namespace oskit::freebsddev
