// Base console over the simulated UART.
//
// The kernel support library's default console: what the minimal C library's
// putchar lands on unless the client overrides it (§3.4, §4.3.1).

#ifndef OSKIT_SRC_KERN_CONSOLE_H_
#define OSKIT_SRC_KERN_CONSOLE_H_

#include "src/machine/simulation.h"
#include "src/machine/uart.h"

namespace oskit {

class BaseConsole {
 public:
  BaseConsole(Simulation* sim, Uart* uart) : sim_(sim), uart_(uart) {}

  int Putchar(int c) {
    if (c == '\n') {
      uart_->WriteByte('\r');
    }
    uart_->WriteByte(static_cast<uint8_t>(c));
    return c;
  }

  int Puts(const char* s) {
    while (*s != '\0') {
      Putchar(*s++);
    }
    Putchar('\n');
    return 0;
  }

  // Non-blocking: -1 when no byte is pending.
  int TryGetchar() { return uart_->RxReady() ? uart_->ReadByte() : -1; }

  // Blocking read (process-level: the fiber waits until a byte arrives).
  int Getchar() {
    sim_->WaitUntil([this] { return uart_->RxReady(); });
    return uart_->ReadByte();
  }

 private:
  Simulation* sim_;
  Uart* uart_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_KERN_CONSOLE_H_
