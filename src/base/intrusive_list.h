// Intrusive doubly-linked list.
//
// Kernel components (LMM free lists, mbuf queues, device registries, TCP
// segment queues) need containers that never allocate: membership state lives
// inside the element.  This is a minimal, assertion-checked intrusive list in
// the style of BSD's queue.h, but type-safe.

#ifndef OSKIT_SRC_BASE_INTRUSIVE_LIST_H_
#define OSKIT_SRC_BASE_INTRUSIVE_LIST_H_

#include <cstddef>

#include "src/base/panic.h"

namespace oskit {

// Embed one of these per list a type can belong to.
struct ListNode {
  ListNode* prev = nullptr;
  ListNode* next = nullptr;

  bool InList() const { return next != nullptr; }

  void Unlink() {
    OSKIT_ASSERT(InList());
    prev->next = next;
    next->prev = prev;
    prev = nullptr;
    next = nullptr;
  }
};

// Intrusive list of T, where `Member` points at the ListNode inside T.
// Usage:  IntrusiveList<Foo, &Foo::node> list;
template <typename T, ListNode T::* Member>
class IntrusiveList {
 public:
  IntrusiveList() {
    head_.prev = &head_;
    head_.next = &head_;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  ~IntrusiveList() { OSKIT_ASSERT_MSG(Empty(), "list destroyed while non-empty"); }

  bool Empty() const { return head_.next == &head_; }

  size_t Size() const {
    size_t n = 0;
    for (const ListNode* p = head_.next; p != &head_; p = p->next) {
      ++n;
    }
    return n;
  }

  void PushFront(T* element) { InsertAfter(&head_, element); }
  void PushBack(T* element) { InsertBefore(&head_, element); }

  T* Front() { return Empty() ? nullptr : FromNode(head_.next); }
  T* Back() { return Empty() ? nullptr : FromNode(head_.prev); }

  T* PopFront() {
    if (Empty()) {
      return nullptr;
    }
    T* element = FromNode(head_.next);
    NodeOf(element)->Unlink();
    return element;
  }

  T* PopBack() {
    if (Empty()) {
      return nullptr;
    }
    T* element = FromNode(head_.prev);
    NodeOf(element)->Unlink();
    return element;
  }

  void Remove(T* element) { NodeOf(element)->Unlink(); }

  // Iteration: forward, unlink-safe if the caller captures `next` first.
  T* Next(T* element) {
    ListNode* n = NodeOf(element)->next;
    return n == &head_ ? nullptr : FromNode(n);
  }

  // Range-for support.
  class Iterator {
   public:
    Iterator(const IntrusiveList* list, ListNode* node) : list_(list), node_(node) {}
    T& operator*() const { return *FromNode(node_); }
    T* operator->() const { return FromNode(node_); }
    Iterator& operator++() {
      node_ = node_->next;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return node_ != other.node_; }

   private:
    const IntrusiveList* list_;
    ListNode* node_;
  };

  Iterator begin() { return Iterator(this, head_.next); }
  Iterator end() { return Iterator(this, &head_); }

 private:
  static ListNode* NodeOf(T* element) { return &(element->*Member); }

  static T* FromNode(ListNode* node) {
    // Recover the element address from the embedded node address.
    const T* probe = nullptr;
    auto offset = reinterpret_cast<const char*>(&(probe->*Member)) -
                  reinterpret_cast<const char*>(probe);
    return reinterpret_cast<T*>(reinterpret_cast<char*>(node) - offset);
  }

  void InsertAfter(ListNode* position, T* element) {
    ListNode* node = NodeOf(element);
    OSKIT_ASSERT_MSG(!node->InList(), "element already linked");
    node->prev = position;
    node->next = position->next;
    position->next->prev = node;
    position->next = node;
  }

  void InsertBefore(ListNode* position, T* element) {
    ListNode* node = NodeOf(element);
    OSKIT_ASSERT_MSG(!node->InList(), "element already linked");
    node->next = position;
    node->prev = position->prev;
    position->prev->next = node;
    position->prev = node;
  }

  // Sentinel; prev/next are self-referential when empty.
  ListNode head_;
};

}  // namespace oskit

#endif  // OSKIT_SRC_BASE_INTRUSIVE_LIST_H_
