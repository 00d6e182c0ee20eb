#include "src/dev/freebsd/freebsd_char.h"

#include <cstring>

#include "src/base/panic.h"

namespace oskit::freebsddev {

// ---------------------------------------------------------------------------
// Clist
// ---------------------------------------------------------------------------

Clist::~Clist() {
  while (head_ != nullptr) {
    Cblock* next = head_->next;
    env_.mem_free(env_.ctx, head_, sizeof(Cblock));
    head_ = next;
  }
}

bool Clist::Putc(uint8_t c) {
  if (tail_ == nullptr || tail_fill_ == kCblockSize) {
    auto* block = static_cast<Cblock*>(env_.mem_alloc(env_.ctx, sizeof(Cblock), 0));
    if (block == nullptr) {
      return false;
    }
    block->next = nullptr;
    if (tail_ == nullptr) {
      head_ = block;
      head_off_ = 0;
    } else {
      tail_->next = block;
    }
    tail_ = block;
    tail_fill_ = 0;
    ++cblocks_allocated_;
  }
  tail_->data[tail_fill_++] = c;
  ++count_;
  return true;
}

int Clist::Getc() {
  if (count_ == 0) {
    return -1;
  }
  uint8_t c = head_->data[head_off_++];
  --count_;
  bool head_is_tail = head_ == tail_;
  size_t head_end = head_is_tail ? tail_fill_ : kCblockSize;
  if (head_off_ == head_end) {
    Cblock* dead = head_;
    head_ = head_->next;
    head_off_ = 0;
    if (head_ == nullptr) {
      tail_ = nullptr;
      tail_fill_ = 0;
    }
    env_.mem_free(env_.ctx, dead, sizeof(Cblock));
  }
  return c;
}

// ---------------------------------------------------------------------------
// BsdTtyDev
// ---------------------------------------------------------------------------

BsdTtyDev::BsdTtyDev(const FdevEnv& env, Uart* uart, int irq, std::string name)
    : env_(env),
      uart_(uart),
      irq_(irq),
      name_(std::move(name)),
      rx_queue_(env),
      reader_wait_(env.sleep_env) {
  env_.irq_attach(env_.ctx, irq_, [this] { RxInterrupt(); });
  uart_->EnableRxInterrupt(true);
}

BsdTtyDev::~BsdTtyDev() {
  uart_->EnableRxInterrupt(false);
  env_.irq_detach(env_.ctx, irq_);
}

Error BsdTtyDev::GetInfo(DeviceInfo* out_info) {
  out_info->name = name_.c_str();
  out_info->description = "4.4BSD-style tty over simulated UART";
  out_info->vendor = "freebsd";
  return Error::kOk;
}

void BsdTtyDev::RxInterrupt() {
  // Interrupt level: drain the FIFO into the clist, wake any reader.
  bool got = false;
  while (uart_->RxReady()) {
    rx_queue_.Putc(uart_->ReadByte());
    got = true;
  }
  if (got && reader_waiting_) {
    reader_wait_.Wakeup();
  }
}

Error BsdTtyDev::Read(void* buf, size_t amount, size_t* out_actual) {
  *out_actual = 0;
  if (amount == 0) {
    return Error::kOk;
  }
  auto* out = static_cast<uint8_t*>(buf);
  // Block (process level) until at least one character is queued.
  while (rx_queue_.count() == 0) {
    reader_waiting_ = true;
    reader_wait_.Sleep();
    reader_waiting_ = false;
  }
  size_t n = 0;
  while (n < amount) {
    int c = rx_queue_.Getc();
    if (c < 0) {
      break;
    }
    out[n++] = static_cast<uint8_t>(c);
  }
  *out_actual = n;
  return Error::kOk;
}

Error BsdTtyDev::Write(const void* buf, size_t amount, size_t* out_actual) {
  const auto* in = static_cast<const uint8_t*>(buf);
  for (size_t i = 0; i < amount; ++i) {
    uart_->WriteByte(in[i]);
  }
  *out_actual = amount;
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

Error InitFreeBsdChar(const FdevEnv& env, Machine* machine, DeviceRegistry* registry) {
  registry->Register(
      ComPtr<Device>(new BsdTtyDev(env, &machine->console_uart(), 4, "console")));
  registry->Register(
      ComPtr<Device>(new BsdTtyDev(env, &machine->debug_uart(), 3, "sio0")));
  return Error::kOk;
}

}  // namespace oskit::freebsddev
