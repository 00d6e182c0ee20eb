// FreeBSD-idiom character device drivers (paper §3.6: "eight character
// device drivers imported from FreeBSD ... supporting the standard PC
// console and serial port").
//
// The "imported" flavour here is the 4.4BSD clist — the linked small-block
// character queue every BSD tty is built on — plus interrupt-level input
// feeding the clist and sleep/wakeup for blocked readers.  The glue exports
// the tty as COM Device + CharStream, so these FreeBSD drivers sit in the
// same registry as the Linux network drivers ("the FreeBSD drivers work
// alongside the Linux drivers without a problem").

#ifndef OSKIT_SRC_DEV_FREEBSD_FREEBSD_CHAR_H_
#define OSKIT_SRC_DEV_FREEBSD_FREEBSD_CHAR_H_

#include <string>

#include "src/com/charstream.h"
#include "src/com/device.h"
#include "src/dev/fdev/fdev.h"
#include "src/machine/uart.h"

namespace oskit::freebsddev {

// 4.4BSD clist: a queue of characters stored in chained fixed-size cblocks.
class Clist {
 public:
  static constexpr size_t kCblockSize = 64;

  explicit Clist(const FdevEnv& env) : env_(env) {}
  ~Clist();

  Clist(const Clist&) = delete;
  Clist& operator=(const Clist&) = delete;

  // putc: appends one character; allocates a cblock as needed.
  // Returns false when allocation fails (the BSD driver drops the char).
  bool Putc(uint8_t c);

  // getc: removes and returns the head character, or -1 when empty.
  int Getc();

  size_t count() const { return count_; }
  size_t cblocks_allocated() const { return cblocks_allocated_; }

 private:
  struct Cblock {
    Cblock* next;
    uint8_t data[kCblockSize];
  };

  FdevEnv env_;
  Cblock* head_ = nullptr;
  Cblock* tail_ = nullptr;
  size_t head_off_ = 0;   // consume cursor within head_
  size_t tail_fill_ = 0;  // fill cursor within tail_
  size_t count_ = 0;
  size_t cblocks_allocated_ = 0;
};

// A BSD-style tty over the simulated UART, exported as Device + CharStream.
class BsdTtyDev final : public ComObject<BsdTtyDev, Device, CharStream> {
 public:
  BsdTtyDev(const FdevEnv& env, Uart* uart, int irq, std::string name);

  // Device
  Error GetInfo(DeviceInfo* out_info) override;

  // CharStream: Read blocks (sleep/wakeup) until at least one byte.
  Error Read(void* buf, size_t amount, size_t* out_actual) override;
  Error Write(const void* buf, size_t amount, size_t* out_actual) override;

  size_t input_queued() const { return rx_queue_.count(); }

 private:
  friend class RefCounted<BsdTtyDev>;
  ~BsdTtyDev();

  void RxInterrupt();

  FdevEnv env_;
  Uart* uart_;
  int irq_;
  std::string name_;
  Clist rx_queue_;
  SleepRecord reader_wait_;
  bool reader_waiting_ = false;
};

// Probes the machine's console and debug UARTs, BSD style, registering
// "console" and "sio0".
Error InitFreeBsdChar(const FdevEnv& env, Machine* machine, DeviceRegistry* registry);

}  // namespace oskit::freebsddev

#endif  // OSKIT_SRC_DEV_FREEBSD_FREEBSD_CHAR_H_
