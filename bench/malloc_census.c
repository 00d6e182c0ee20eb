/* A sampling malloc counter, loaded with LD_PRELOAD (bench/malloc_census.py
 * builds it and reads what it writes).
 *
 * Every malloc, calloc and realloc call is counted; one call in
 * MALLOC_CENSUS_EVERY (default 997) also records its return addresses.  At
 * exit the shim writes to the file MALLOC_CENSUS_OUT:
 *
 *   calls <total>
 *   every <sampling period>
 *   sample <object>+0x<offset> <object>+0x<offset> ...   (one per sample)
 *
 * Each address is an offset into the object it lies in, so a
 * position-independent executable resolves with addr2line.  The real
 * allocator is glibc's __libc_malloc family, so the shim allocates nothing of
 * its own; a call made while the shim is unwinding is counted, not sampled.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* ptr, size_t size);

enum { kDepth = 12, kMaxSamples = 1 << 16 };

static atomic_ulong g_calls;
static unsigned long g_every = 997;
static void* g_samples[kMaxSamples][kDepth];
static int g_depths[kMaxSamples];
static atomic_int g_sample_count;
static __thread int t_busy;

__attribute__((noinline)) static void Count(void) {
  unsigned long n = atomic_fetch_add_explicit(&g_calls, 1, memory_order_relaxed);
  if (n % g_every != 0 || t_busy) {
    return;
  }
  int slot = atomic_fetch_add_explicit(&g_sample_count, 1, memory_order_relaxed);
  if (slot >= kMaxSamples) {
    return;
  }
  t_busy = 1;  /* backtrace() may allocate the first time it runs */
  g_depths[slot] = backtrace(g_samples[slot], kDepth);
  t_busy = 0;
}

void* malloc(size_t size) {
  Count();
  return __libc_malloc(size);
}

void* calloc(size_t count, size_t size) {
  Count();
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, size_t size) {
  Count();
  return __libc_realloc(ptr, size);
}

__attribute__((constructor)) static void Start(void) {
  const char* every = getenv("MALLOC_CENSUS_EVERY");
  if (every != NULL && strtoul(every, NULL, 10) > 0) {
    g_every = strtoul(every, NULL, 10);
  }
}

__attribute__((destructor)) static void Report(void) {
  const char* path = getenv("MALLOC_CENSUS_OUT");
  if (path == NULL) {
    return;
  }
  t_busy = 1;
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    return;
  }
  fprintf(out, "calls %lu\nevery %lu\n", atomic_load(&g_calls), g_every);
  int samples = atomic_load(&g_sample_count);
  if (samples > kMaxSamples) {
    samples = kMaxSamples;
  }
  for (int s = 0; s < samples; ++s) {
    fputs("sample", out);
    /* Frame 0 is Count, frame 1 the interposed allocator. */
    for (int f = 2; f < g_depths[s]; ++f) {
      Dl_info info;
      if (dladdr(g_samples[s][f], &info) != 0 && info.dli_fname != NULL) {
        /* A return address points past its call: step back into it. */
        unsigned long offset =
            (unsigned long)((char*)g_samples[s][f] - (char*)info.dli_fbase) - 1;
        fprintf(out, " %s+0x%lx", info.dli_fname, offset);
      }
    }
    fputc('\n', out);
  }
  fclose(out);
}
