// AddressSanitizer manual poisoning and fiber-switch annotations, or
// nothing in a build without it.
//
// A store that recycles memory itself (the mbuf free lists, the switch's
// frame pool, fiber stacks, zero-on-demand slack) poisons what it holds
// unused, so a touch through a stale pointer is still a report under ASan
// even though the bytes never went back to malloc.
//
// A context switch onto another stack is bracketed by
// OSKIT_ASAN_START_SWITCH_FIBER (before: where to park the leaving
// context's fake stack, or null when it never comes back, and the stack
// being entered) and OSKIT_ASAN_FINISH_SWITCH_FIBER (after: the entered
// context's parked fake stack; it reports the stack just left).  ASan then
// knows which stack is live without relying on its swapcontext interceptor.

#ifndef OSKIT_SRC_BASE_ASAN_H_
#define OSKIT_SRC_BASE_ASAN_H_

// OSKIT_ASAN is defined in a build under AddressSanitizer.
#if defined(__SANITIZE_ADDRESS__)
#define OSKIT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSKIT_ASAN 1
#endif
#endif

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#if defined(OSKIT_ASAN)
#define OSKIT_ASAN_START_SWITCH_FIBER(fake_stack_save, bottom, size) \
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size)
#define OSKIT_ASAN_FINISH_SWITCH_FIBER(fake_stack_save, bottom_old, size_old) \
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old)
#else
#define OSKIT_ASAN_START_SWITCH_FIBER(fake_stack_save, bottom, size) \
  ((void)(fake_stack_save), (void)(bottom), (void)(size))
#define OSKIT_ASAN_FINISH_SWITCH_FIBER(fake_stack_save, bottom_old, size_old) \
  ((void)(fake_stack_save), (void)(bottom_old), (void)(size_old))
#endif

#endif  // OSKIT_SRC_BASE_ASAN_H_
