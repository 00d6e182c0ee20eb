// Simulated Ethernet NIC hardware.
//
// This is the device the encapsulated "Linux" driver (src/dev/linux) drives:
// it exposes register-style programmed I/O — RX ring status, RX dequeue, TX
// start from one gather descriptor list (a contiguous frame is a list of
// one) — and raises its IRQ when a frame for this station arrives.  It does
// hardware-level destination filtering (own MAC and broadcast), and drops
// and counts a frame longer than kEtherMaxFrame, which no RX buffer holds.
//
// Receive memory: the RX ring is a fixed ring of NIC-owned RX buffers, each
// kEtherMaxFrame bytes, drawn from a per-thread free list
// (src/base/free_list.h, high-water mark kRxBufferCacheMax).  FrameArrived
// copies the fabric's shared frame into one once — the NIC's DMA, and the
// only copy nic.rx.corrupt flips a byte in.  A driver either copies the head frame
// out (RxDequeue: the Linux driver's skbuff) or takes the buffer itself
// (RxTake: the BSD driver grafts it into an mbuf as external storage).  A
// taken buffer belongs to its holder, may outlive the NIC, and goes back to
// the free list when deleted.
//
// Interrupt mitigation: the RX IRQ is governed by coalescing "registers"
// (RxMitigation).  The IRQ fires when `frame_threshold` frames have arrived
// since the last announcement, or when a `holdoff_ns` timer armed by the
// first unannounced frame expires, whichever comes first; kRxRingFallback
// is a ring-occupancy safety net so a deep ring never strands frames behind
// a long holdoff.  The power-on defaults (threshold 1, no holdoff) reproduce
// the classic one-interrupt-per-frame behaviour exactly.  Like real
// hardware, re-enabling the RX interrupt does NOT retroactively announce
// frames that arrived while it was disabled — software running a polled
// receive loop must re-check the ring after re-enabling (the classic NAPI
// race; the Linux glue's poll path does, and tests depend on it).
//
// Fault injection (src/fault): with an environment bound, the NIC honours
//   nic.tx.drop     — frame accepted by the "hardware" but never reaches
//                     the wire (cable/transceiver fault),
//   nic.rx.corrupt  — one byte of the received frame flips in the RX ring
//                     (checksum offload is for later decades),
//   nic.rx.miss_irq — frame lands in the ring but the interrupt is lost
//                     (the classic missed-IRQ race drivers watchdog for);
//                     under coalescing a lost IRQ swallows the whole
//                     announcement, stranding every batched frame,
//   nic.irq.spurious — an extra, causeless IRQ is raised on transmit.

#ifndef OSKIT_SRC_MACHINE_NIC_H_
#define OSKIT_SRC_MACHINE_NIC_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/base/free_list.h"
#include "src/com/etherdev.h"
#include "src/fault/fault.h"
#include "src/machine/clock.h"
#include "src/machine/pic.h"
#include "src/machine/switch.h"
#include "src/trace/counters.h"

namespace oskit {

class NicHw final : public WireEndpoint {
 public:
  static constexpr int kDefaultIrq = 11;
  static constexpr size_t kRxRingCapacity = 64;
  // Ring occupancy that raises the IRQ whatever the mitigation registers say.
  static constexpr size_t kRxRingFallback = kRxRingCapacity * 3 / 4;
  // Free-list high-water mark of the RX buffers, shared by every NIC on the
  // thread.
  static constexpr size_t kRxBufferCacheMax = 256;

  // One received frame in NIC-owned memory.
  struct RxBuffer : FreeListed<RxBuffer, kRxBufferCacheMax> {
    uint32_t len = 0;
    uint8_t bytes[kEtherMaxFrame];
  };
  using RxBufferPtr = std::unique_ptr<RxBuffer>;

  // RX interrupt coalescing registers (see file comment).  Defaults model
  // the 1997 hardware: every frame announces itself.
  struct RxMitigation {
    size_t frame_threshold = 1;  // raise after N unannounced frames
    uint64_t holdoff_ns = 0;     // ... or this long after the first one
  };

  NicHw(VirtualSwitch* fabric, Pic* pic, SimClock* clock, const EtherAddr& mac,
        int irq = kDefaultIrq)
      : fabric_(fabric), pic_(pic), clock_(clock), mac_(mac), irq_(irq) {
    fabric->Attach(this);
  }
  ~NicHw() override;

  const EtherAddr& mac() const { return mac_; }
  int irq() const { return irq_; }

  void EnableRxInterrupt(bool on) { rx_interrupt_enabled_ = on; }
  void SetFaultEnv(fault::FaultEnv* env) { fault_ = fault::ResolveFaultEnv(env); }

  void SetRxMitigation(const RxMitigation& mit);
  const RxMitigation& rx_mitigation() const { return mit_; }

  // ---- Driver-facing "registers" ----
  bool RxPending() const { return rx_count_ != 0; }
  size_t RxFrameSize() const { return rx_count_ == 0 ? 0 : rx_ring_[rx_head_]->len; }

  // Hands the head RX buffer to the caller and advances the ring.
  RxBufferPtr RxTake();

  // Copies the head RX frame into `buf` (must hold RxFrameSize() bytes) and
  // advances the ring.  Returns the frame length.
  size_t RxDequeue(uint8_t* buf);

  // RX buffers taken on this thread and not yet deleted, in rings or held.
  static size_t rx_buffers_outstanding() {
    return FreeList<RxBuffer, kRxBufferCacheMax>::outstanding();
  }

  // Starts transmission of a complete Ethernet frame (header + payload),
  // described as a DMA-gather descriptor list that goes to the wire-side
  // engine as-is, with no bounce-buffer assembly in the NIC.  A contiguous
  // frame is a one-chunk list.
  void TxStart(const uint8_t* const* chunks, const size_t* lens, size_t count);

  // WireEndpoint
  void FrameArrived(const uint8_t* frame, size_t len) override;

  // Statistics.
  uint64_t rx_frames() const { return rx_frames_; }
  uint64_t rx_overruns() const { return rx_overruns_; }
  uint64_t rx_oversize() const { return rx_oversize_; }
  uint64_t tx_frames() const { return tx_frames_; }
  uint64_t tx_dropped() const { return tx_dropped_; }
  uint64_t rx_corrupted() const { return rx_corrupted_; }
  uint64_t rx_irqs_missed() const { return rx_irqs_missed_; }

  // Coalescing counters, bound into the per-machine registry by KernelEnv
  // under "nic.rx.coalesce.*".
  trace::Counter& rx_coalesce_frames_counter() { return rx_coalesce_frames_; }
  trace::Counter& rx_coalesce_irqs_counter() { return rx_coalesce_irqs_; }
  trace::Counter& rx_coalesce_threshold_counter() { return rx_coalesce_threshold_; }
  trace::Counter& rx_coalesce_holdoff_counter() { return rx_coalesce_holdoff_; }
  trace::Counter& rx_coalesce_ring_counter() { return rx_coalesce_ring_; }

 private:
  bool AcceptsFrame(const uint8_t* frame, size_t len) const;

  // Shared transmit gate: counts the frame and applies the TX fault model.
  // Returns false when the frame is eaten before reaching the wire.
  bool TxGate();

  // Announces pending frames: resets the coalescing state and raises the
  // IRQ (unless the fault model loses it — then the whole batch strands).
  void RaiseRxIrq();
  void HoldoffFired();
  void CancelHoldoff();

  VirtualSwitch* fabric_;
  Pic* pic_;
  SimClock* clock_;
  EtherAddr mac_;
  int irq_;
  bool rx_interrupt_enabled_ = false;
  RxMitigation mit_;
  size_t unannounced_ = 0;  // frames enqueued since the last IRQ
  SimClock::EventId holdoff_event_ = SimClock::kInvalidEvent;
  std::array<RxBufferPtr, kRxRingCapacity> rx_ring_;
  size_t rx_head_ = 0;   // slot of the oldest frame
  size_t rx_count_ = 0;  // frames in the ring
  uint64_t rx_frames_ = 0;
  uint64_t rx_overruns_ = 0;
  uint64_t rx_oversize_ = 0;
  uint64_t tx_frames_ = 0;
  uint64_t tx_dropped_ = 0;
  uint64_t rx_corrupted_ = 0;
  uint64_t rx_irqs_missed_ = 0;
  trace::Counter rx_coalesce_frames_;
  trace::Counter rx_coalesce_irqs_;
  trace::Counter rx_coalesce_threshold_;
  trace::Counter rx_coalesce_holdoff_;
  trace::Counter rx_coalesce_ring_;
  fault::FaultEnv* fault_ = fault::DefaultFaultEnv();
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_NIC_H_
