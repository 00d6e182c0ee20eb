// The replaced global operator new/delete that machine_test, driver_test and
// fs_test count allocations with.  They live in a translation unit of their own:
// where a caller could inline the replaced delete, gcc sees std::free run on
// a pointer from operator new and warns (-Wmismatched-new-delete).  The
// nothrow form is replaced too (std::stable_sort's buffer takes it), so
// every block the replaced delete frees came from malloc.

#include <atomic>
#include <cstdlib>
#include <new>

static std::atomic<size_t> g_new_calls{0};

size_t GlobalNewCalls() { return g_new_calls.load(); }

void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
