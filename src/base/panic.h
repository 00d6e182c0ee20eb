// Panic and assertion plumbing.
//
// In a real kernel the panic handler halts the machine; in this hosted
// reproduction the default handler prints to stderr and aborts, and tests can
// install a throwing handler to assert that a panic fired.

#ifndef OSKIT_SRC_BASE_PANIC_H_
#define OSKIT_SRC_BASE_PANIC_H_

namespace oskit {

// Handler invoked by Panic(); must not return.  Returns the previous handler.
// The handler and the observers below belong to the calling host thread.
using PanicHandler = void (*)(const char* message);
PanicHandler SetPanicHandler(PanicHandler handler);

// Observers run (in registration order) before the panic handler, so
// diagnostic state — the trace component's flight recorder, notably — can be
// dumped while the machine is still standing.  Observers must not panic;
// a nested Panic() skips the observer pass.
using PanicObserver = void (*)(void* ctx, const char* message);
void AddPanicObserver(PanicObserver observer, void* ctx);
void RemovePanicObserver(PanicObserver observer, void* ctx);

// Formats a message (printf-style) and invokes the installed panic handler.
[[noreturn]] void Panic(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace oskit

// Kernel-style assertion: always enabled, independent of NDEBUG.  OSKit
// components guard their internal invariants with these so that corruption is
// caught at the component boundary rather than propagating.
#define OSKIT_ASSERT(cond)                                                    \
  do {                                                                        \
    if (!(cond)) {                                                            \
      ::oskit::Panic("assertion failed: %s at %s:%d", #cond, __FILE__, __LINE__); \
    }                                                                         \
  } while (0)

#define OSKIT_ASSERT_MSG(cond, msg)                                            \
  do {                                                                         \
    if (!(cond)) {                                                             \
      ::oskit::Panic("assertion failed: %s (%s) at %s:%d", #cond, (msg),       \
                     __FILE__, __LINE__);                                      \
    }                                                                          \
  } while (0)

#endif  // OSKIT_SRC_BASE_PANIC_H_
