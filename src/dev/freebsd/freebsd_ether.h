// The BSD-idiom native Ethernet driver.
//
// This is the driver that belongs to the baseline "FreeBSD itself" rows of
// Tables 1 and 2: it speaks mbufs natively on both paths, so there is no
// buffer-model conversion and no COM boundary anywhere between TCP and the
// wire.  Transmit hands the hardware the mbuf chain as a DMA gather list;
// receive takes the NIC's own RX buffer and grafts it into an mbuf as
// external storage (BSD M_EXT) whose release hook returns it to the NIC's
// free list, so a frame reaches the stack with no cluster and no copy
// after the NIC's DMA.
//
// Robustness: a chain with more fragments than the hardware has gather
// descriptors is linearized through a bounce buffer instead of tripping an
// assertion; receive-buffer exhaustion drops the frame (counted) instead of
// wedging; and a watchdog timer drains the RX ring if an interrupt is lost.
// Recovery actions are counted into the trace registry under "bsd.*".

#ifndef OSKIT_SRC_DEV_FREEBSD_FREEBSD_ETHER_H_
#define OSKIT_SRC_DEV_FREEBSD_FREEBSD_ETHER_H_

#include "src/dev/fdev/fdev.h"
#include "src/machine/nic.h"
#include "src/net/stack.h"

namespace oskit::freebsddev {

class BsdEtherDriver final : public net::NativeEtherPort {
 public:
  BsdEtherDriver(const FdevEnv& env, NicHw* hw, net::NetStack* stack);
  ~BsdEtherDriver() override;

  // Binds into the stack (OpenNativeIf + interrupt attach).
  Error Attach();

  // NativeEtherPort
  EtherAddr mac() const override { return hw_->mac(); }
  void Output(net::MBuf* frame) override;

  uint64_t tx_frames() const { return tx_frames_; }
  uint64_t rx_frames() const { return rx_frames_; }
  uint64_t tx_linearized() const { return tx_linearized_; }
  uint64_t rx_alloc_drops() const { return rx_alloc_drops_; }

 private:
  // The hardware's gather-descriptor budget (TxStart limit).
  static constexpr size_t kMaxGather = 64;

  void Interrupt();
  void ArmRxWatchdog();
  void RxWatchdogTick();
  void CancelRxWatchdog();

  FdevEnv env_;
  NicHw* hw_;
  net::NetStack* stack_;
  fault::FaultEnv* fault_;
  int ifindex_ = -1;
  bool attached_ = false;
  uint64_t tx_frames_ = 0;
  uint64_t rx_frames_ = 0;
  trace::Counter tx_linearized_;
  trace::Counter rx_alloc_drops_;
  trace::Counter rx_watchdog_recoveries_;
  trace::CounterBlock trace_binding_;
  void* watchdog_token_ = nullptr;
};

}  // namespace oskit::freebsddev

#endif  // OSKIT_SRC_DEV_FREEBSD_FREEBSD_ETHER_H_
