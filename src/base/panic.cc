#include "src/base/panic.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace oskit {
namespace {

[[noreturn]] void DefaultPanicHandler(const char* message) {
  std::fprintf(stderr, "oskit panic: %s\n", message);
  std::abort();
}

// Per host thread, like every other piece of kit state: a world running on
// one thread never sees another thread's handler or observers.
thread_local PanicHandler g_panic_handler = &DefaultPanicHandler;

struct ObserverEntry {
  PanicObserver observer;
  void* ctx;
};

constexpr int kMaxPanicObservers = 8;
thread_local ObserverEntry g_observers[kMaxPanicObservers];
thread_local int g_observer_count = 0;
thread_local bool g_in_panic = false;

}  // namespace

PanicHandler SetPanicHandler(PanicHandler handler) {
  PanicHandler previous = g_panic_handler;
  g_panic_handler = handler != nullptr ? handler : &DefaultPanicHandler;
  return previous;
}

void AddPanicObserver(PanicObserver observer, void* ctx) {
  if (g_observer_count < kMaxPanicObservers) {
    g_observers[g_observer_count++] = ObserverEntry{observer, ctx};
  }
}

void RemovePanicObserver(PanicObserver observer, void* ctx) {
  for (int i = 0; i < g_observer_count; ++i) {
    if (g_observers[i].observer == observer && g_observers[i].ctx == ctx) {
      for (int j = i; j + 1 < g_observer_count; ++j) {
        g_observers[j] = g_observers[j + 1];
      }
      --g_observer_count;
      return;
    }
  }
}

void Panic(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (!g_in_panic) {
    g_in_panic = true;
    for (int i = 0; i < g_observer_count; ++i) {
      g_observers[i].observer(g_observers[i].ctx, buffer);
    }
    g_in_panic = false;
  }
  g_panic_handler(buffer);
  // A conforming handler never returns; guard against one that does.
  std::abort();
}

}  // namespace oskit
