// AddressSanitizer manual poisoning, or nothing in a build without it.
//
// A store that recycles memory itself (the mbuf free lists, the switch's
// frame pool, fiber stacks, zero-on-demand slack) poisons what it holds
// unused, so a touch through a stale pointer is still a report under ASan
// even though the bytes never went back to malloc.

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

#endif  // OSKIT_SRC_BASE_ASAN_H_
