// A per-thread LIFO free list of equal-size blocks, for objects made and
// destroyed once per packet.
//
// FreeList<T, kMax>::Take() returns the block this thread cached last, or a
// fresh one from the heap; Give() caches a block, or hands it back to the
// heap once kMax are cached (a fixed high-water mark, as BSD's mfree was).
// A cached block is ASan-poisoned, so a touch through a stale pointer is
// still a report although the bytes never went back to malloc.  A class
// whose every `new` and `delete` should go through the list derives from
// FreeListed<T, kMax>; MbufPool calls Take/Give for its mbufs, MExt headers
// and clusters.
//
// The list is per thread, not per owner, like the fiber stack cache: a
// block may outlive what made it (a NIC's receive buffer still queued in a
// socket when the NIC is gone), and a world built per operation starts
// warm.  Blocks cached when a thread exits go back to the heap.

#ifndef OSKIT_SRC_BASE_FREE_LIST_H_
#define OSKIT_SRC_BASE_FREE_LIST_H_

#include <cstddef>
#include <new>
#include <utility>

#include "src/base/asan.h"
#include "src/base/panic.h"

namespace oskit {

template <typename T, size_t kMax>
class FreeList {
 public:
  static void* Take() {
    Cache& cache = ThisThread();
    ++cache.outstanding;
    Link* block = cache.head;
    if (block == nullptr) {
      return ::operator new(sizeof(T));
    }
    ASAN_UNPOISON_MEMORY_REGION(block, sizeof(T));
    cache.head = block->next;
    --cache.cached;
    return block;
  }

  static void Give(void* block) {
    Cache& cache = ThisThread();
    --cache.outstanding;
    if (cache.cached >= kMax) {
      ::operator delete(block);
      return;
    }
    cache.head = new (block) Link{cache.head};
    ++cache.cached;
    ASAN_POISON_MEMORY_REGION(block, sizeof(T));
  }

  // Blocks this thread took and has not given back.
  static size_t outstanding() { return ThisThread().outstanding; }

 private:
  struct Link {
    Link* next;
  };
  static_assert(sizeof(T) >= sizeof(Link), "a cached block holds its link");

  struct Cache {
    Link* head = nullptr;
    size_t cached = 0;
    size_t outstanding = 0;
    ~Cache() {
      while (head != nullptr) {
        ASAN_UNPOISON_MEMORY_REGION(head, sizeof(T));
        ::operator delete(std::exchange(head, head->next));
      }
    }
  };
  static Cache& ThisThread() {
    thread_local Cache cache;
    return cache;
  }
};

template <typename T, size_t kMax>
struct FreeListed {
  static void* operator new(size_t size) {
    OSKIT_ASSERT_MSG(size == sizeof(T), "FreeListed<T> allocating another type");
    return FreeList<T, kMax>::Take();
  }
  static void operator delete(void* block) { FreeList<T, kMax>::Give(block); }
};

}  // namespace oskit

#endif  // OSKIT_SRC_BASE_FREE_LIST_H_
