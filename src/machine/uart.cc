#include "src/machine/uart.h"

#include "src/base/panic.h"

namespace oskit {

uint8_t Uart::ReadByte() {
  OSKIT_ASSERT_MSG(!rx_fifo_.empty(), "UART read with empty RX FIFO");
  uint8_t byte = rx_fifo_.front();
  rx_fifo_.pop_front();
  return byte;
}

void Uart::WriteByte(uint8_t byte) {
  if (peer_ == nullptr) {
    captured_output_.push_back(static_cast<char>(byte));
    return;
  }
  peer_->Deliver(byte);
}

void Uart::InjectRx(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    Deliver(bytes[i]);
  }
}

void Uart::Deliver(uint8_t byte) {
  rx_fifo_.push_back(byte);
  if (rx_interrupt_enabled_) {
    pic_->RaiseIrq(irq_);
  }
}

std::string Uart::TakeOutput() {
  std::string out;
  out.swap(captured_output_);
  return out;
}

}  // namespace oskit
