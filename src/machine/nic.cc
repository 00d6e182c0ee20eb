#include "src/machine/nic.h"

#include <cstring>
#include <utility>

#include "src/base/panic.h"

namespace oskit {

NicHw::~NicHw() { CancelHoldoff(); }

void NicHw::SetRxMitigation(const RxMitigation& mit) {
  OSKIT_ASSERT_MSG(mit.frame_threshold >= 1, "threshold below 1");
  mit_ = mit;
  if (mit_.holdoff_ns == 0) {
    CancelHoldoff();
  }
}

NicHw::RxBufferPtr NicHw::RxTake() {
  OSKIT_ASSERT_MSG(rx_count_ != 0, "RX dequeue on empty ring");
  RxBufferPtr head = std::move(rx_ring_[rx_head_]);
  rx_head_ = (rx_head_ + 1) % kRxRingCapacity;
  --rx_count_;
  // A drained frame no longer needs announcing; without this clamp a
  // polled driver would see stale threshold IRQs for frames it already
  // consumed.
  if (unannounced_ > rx_count_) {
    unannounced_ = rx_count_;
  }
  return head;
}

size_t NicHw::RxDequeue(uint8_t* buf) {
  RxBufferPtr frame = RxTake();
  std::memcpy(buf, frame->bytes, frame->len);
  return frame->len;
}

bool NicHw::TxGate() {
  ++tx_frames_;
  if (fault::ShouldFail(fault_, "nic.irq.spurious")) {
    pic_->RaiseIrq(irq_);  // causeless interrupt: drivers must tolerate it
  }
  if (fault::ShouldFail(fault_, "nic.tx.drop")) {
    ++tx_dropped_;
    return false;  // the transceiver ate the frame; TCP's timers must notice
  }
  return true;
}

void NicHw::TxStart(const uint8_t* const* chunks, const size_t* lens,
                    size_t count) {
  // Hardware DMA gather: the descriptor list goes straight to the wire-side
  // engine — the NIC never stages the frame through a bounce buffer.
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    total += lens[i];
  }
  OSKIT_ASSERT_MSG(total >= kEtherHeaderSize, "runt frame");
  OSKIT_ASSERT_MSG(total <= kEtherMaxFrame, "oversize frame");
  if (!TxGate()) {
    return;
  }
  fabric_->Transmit(this, chunks, lens, count);
}

void NicHw::FrameArrived(const uint8_t* frame, size_t len) {
  if (!AcceptsFrame(frame, len)) {
    return;
  }
  if (len > kEtherMaxFrame) {
    ++rx_oversize_;  // a giant: no RX buffer holds it
    return;
  }
  if (rx_count_ >= kRxRingCapacity) {
    ++rx_overruns_;
    return;
  }
  ++rx_frames_;
  // The NIC's DMA into its own buffer: the fabric's frame stays shared.
  RxBufferPtr rx(new RxBuffer);
  std::memcpy(rx->bytes, frame, len);
  rx->len = static_cast<uint32_t>(len);
  if (len > kEtherHeaderSize && fault::ShouldFail(fault_, "nic.rx.corrupt")) {
    // Flip one payload byte past the header so the frame still reaches the
    // stack and the protocol checksums have to catch it.
    size_t at = kEtherHeaderSize + fault_->rng().Below(len - kEtherHeaderSize);
    rx->bytes[at] ^= 0xff;
    ++rx_corrupted_;
  }
  rx_ring_[(rx_head_ + rx_count_) % kRxRingCapacity] = std::move(rx);
  ++rx_count_;
  ++rx_coalesce_frames_;
  if (!rx_interrupt_enabled_) {
    // The driver is polling with interrupts masked: the frame sits in the
    // ring unannounced.  Nothing fires when the interrupt is re-enabled,
    // either — that is the race the poll loop's re-check closes.
    return;
  }
  ++unannounced_;
  if (unannounced_ >= mit_.frame_threshold) {
    ++rx_coalesce_threshold_;
    RaiseRxIrq();
    return;
  }
  if (rx_count_ >= kRxRingFallback) {
    ++rx_coalesce_ring_;
    RaiseRxIrq();
    return;
  }
  if (mit_.holdoff_ns > 0 && holdoff_event_ == SimClock::kInvalidEvent) {
    holdoff_event_ =
        clock_->ScheduleAfter(mit_.holdoff_ns, [this] { HoldoffFired(); });
  }
}

void NicHw::RaiseRxIrq() {
  unannounced_ = 0;
  CancelHoldoff();
  if (fault::ShouldFail(fault_, "nic.rx.miss_irq")) {
    // The announcement is consumed but the line never asserts: every frame
    // batched behind it strands until software notices (the RX watchdog).
    ++rx_irqs_missed_;
    return;
  }
  ++rx_coalesce_irqs_;
  pic_->RaiseIrq(irq_);
}

void NicHw::HoldoffFired() {
  holdoff_event_ = SimClock::kInvalidEvent;
  if (rx_interrupt_enabled_ && unannounced_ > 0) {
    ++rx_coalesce_holdoff_;
    RaiseRxIrq();
  }
}

void NicHw::CancelHoldoff() {
  clock_->Cancel(std::exchange(holdoff_event_, SimClock::kInvalidEvent));
}

bool NicHw::AcceptsFrame(const uint8_t* frame, size_t len) const {
  if (len < kEtherHeaderSize) {
    return false;
  }
  EtherAddr dest;
  std::memcpy(dest.bytes, frame, kEtherAddrSize);
  return dest == mac_ || dest.IsBroadcast();
}

}  // namespace oskit
