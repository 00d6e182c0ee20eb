// Simulated serial UART (16550-ish) on IRQ 4.
//
// Carries the console and the GDB remote-debug stub (§3.5).  Two UARTs can
// be cross-connected (kernel under test on one end, debugger model on the
// other); an unconnected UART collects transmitted bytes for inspection.
// A byte reaches the peer's RX FIFO the instant it is written.

#ifndef OSKIT_SRC_MACHINE_UART_H_
#define OSKIT_SRC_MACHINE_UART_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/machine/pic.h"

namespace oskit {

class Uart {
 public:
  static constexpr int kDefaultIrq = 4;

  explicit Uart(Pic* pic, int irq = kDefaultIrq) : pic_(pic), irq_(irq) {}

  // Wires this UART's TX to `peer`'s RX and vice versa.
  void ConnectPeer(Uart* peer) {
    peer_ = peer;
    peer->peer_ = this;
  }

  void EnableRxInterrupt(bool enable) { rx_interrupt_enabled_ = enable; }

  // ---- Programmed I/O (the driver-facing "registers") ----
  bool RxReady() const { return !rx_fifo_.empty(); }
  uint8_t ReadByte();
  void WriteByte(uint8_t byte);

  // ---- Host-side test hooks ----
  // Injects bytes as if they arrived on the line.
  void InjectRx(const void* data, size_t len);

  // Takes everything transmitted so far on an unconnected UART.
  std::string TakeOutput();

 private:
  void Deliver(uint8_t byte);

  Pic* pic_;
  int irq_;
  Uart* peer_ = nullptr;
  bool rx_interrupt_enabled_ = false;
  std::deque<uint8_t> rx_fifo_;
  std::string captured_output_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_MACHINE_UART_H_
