// The COM base interface and reference-management helpers (paper section 4.4).
//
// A COM interface in the paper is a struct whose first member points to a
// table of function pointers; the natural C++ rendering is an abstract class
// whose vtable plays that role.  The three IUnknown methods — Query, AddRef,
// Release — carry exactly the semantics of sections 4.4.1/4.4.2:
//
//  * Query(iid, out) succeeds iff the object implements the interface named
//    by `iid`, returning a pointer usable as that interface (and taking a
//    reference on behalf of the caller).  This is the interface-extension /
//    safe-downcast mechanism: a client probes for an extended interface such
//    as BufIo and falls back to the base BlkIo when Query says kNoInterface.
//  * AddRef/Release are per-object reference counts; Release destroys the
//    object when the count reaches zero.
//
// Interfaces here require NO common support code from the client (4.4.3):
// any object that implements these three methods interoperates, regardless
// of how it manages its own storage.

#ifndef OSKIT_SRC_COM_IUNKNOWN_H_
#define OSKIT_SRC_COM_IUNKNOWN_H_

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>

#include "src/base/error.h"
#include "src/base/panic.h"
#include "src/com/guid.h"

namespace oskit {

class IUnknown {
 public:
  static constexpr Guid kIid =
      MakeGuid(0x00000000, 0x0000, 0x0000, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
               0x46);

  // Queries for the interface named `iid`.  On success stores a usable
  // interface pointer in *out (with a reference added) and returns kOk;
  // otherwise stores nullptr and returns kNoInterface.
  virtual Error Query(const Guid& iid, void** out) = 0;

  // Reference counting.  Both return the new count (diagnostic only).
  virtual uint32_t AddRef() = 0;
  virtual uint32_t Release() = 0;

 protected:
  // COM objects are destroyed via Release(), never via delete-through-base.
  ~IUnknown() = default;
};

// Typed Query helper: probes `object` for interface T.  Generic over the
// object's static type so that objects reaching IUnknown through several
// interface bases (MemBlkIo: BufIo and BlkIoBarrier) need no ambiguous
// up-conversion — Query itself is unambiguous, whichever vtable it is
// reached through.
template <typename T, typename Obj>
Error QueryFor(Obj* object, T** out) {
  void* raw = nullptr;
  Error err = object->Query(T::kIid, &raw);
  *out = static_cast<T*>(raw);
  return err;
}

// Smart reference to a COM interface.  Owns one reference.
template <typename T>
class ComPtr {
 public:
  ComPtr() = default;

  // Adopts `ptr` WITHOUT adding a reference (for "returns a new reference"
  // factory results).  Use Retain() to copy an existing borrowed pointer.
  explicit ComPtr(T* ptr) : ptr_(ptr) {}

  static ComPtr Retain(T* ptr) {
    if (ptr != nullptr) {
      ptr->AddRef();
    }
    return ComPtr(ptr);
  }

  ComPtr(const ComPtr& other) : ptr_(other.ptr_) {
    if (ptr_ != nullptr) {
      ptr_->AddRef();
    }
  }

  ComPtr(ComPtr&& other) noexcept : ptr_(other.ptr_) { other.ptr_ = nullptr; }

  ComPtr& operator=(const ComPtr& other) {
    if (this != &other) {
      Reset();
      ptr_ = other.ptr_;
      if (ptr_ != nullptr) {
        ptr_->AddRef();
      }
    }
    return *this;
  }

  ComPtr& operator=(ComPtr&& other) noexcept {
    if (this != &other) {
      Reset();
      ptr_ = other.ptr_;
      other.ptr_ = nullptr;
    }
    return *this;
  }

  ~ComPtr() { Reset(); }

  void Reset() {
    if (ptr_ != nullptr) {
      ptr_->Release();
      ptr_ = nullptr;
    }
  }

  // Receives an out-parameter result: `factory->Make(&ptr.Receive())`.
  // Any held reference is dropped first.
  T** Receive() {
    Reset();
    return &ptr_;
  }

  void** ReceiveVoid() { return reinterpret_cast<void**>(Receive()); }

  // Releases ownership to the caller without dropping the reference.
  T* Detach() {
    T* p = ptr_;
    ptr_ = nullptr;
    return p;
  }

  T* get() const { return ptr_; }
  T* operator->() const {
    OSKIT_ASSERT(ptr_ != nullptr);
    return ptr_;
  }
  T& operator*() const {
    OSKIT_ASSERT(ptr_ != nullptr);
    return *ptr_;
  }
  explicit operator bool() const { return ptr_ != nullptr; }

  // Queries `object` for T and wraps the result.
  template <typename Obj>
  static ComPtr FromQuery(Obj* object) {
    T* raw = nullptr;
    if (object == nullptr || !Ok(QueryFor(object, &raw))) {
      return ComPtr();
    }
    return ComPtr(raw);
  }

 private:
  T* ptr_ = nullptr;
};

// CRTP mixin supplying the reference count that ComObject (below) builds
// on.
//
// Counts are plain integers, not atomics: OSKit components follow the
// process-level/interrupt-level concurrency model of section 4.7.4, in which
// at most one thread of control executes inside a component at a time.
template <typename Derived>
class RefCounted {
 public:
  uint32_t AddRefImpl() { return ++refs_; }

  uint32_t ReleaseImpl() {
    OSKIT_ASSERT_MSG(refs_ > 0, "Release() on dead object");
    uint32_t remaining = --refs_;
    if (remaining == 0) {
      delete static_cast<Derived*>(this);
    }
    return remaining;
  }

  uint32_t ref_count() const { return refs_; }

 protected:
  ~RefCounted() = default;

 private:
  uint32_t refs_ = 1;  // born referenced, COM style
};

// Expands to the boilerplate AddRef/Release overrides inside a class that
// mixes in RefCounted<Self> and writes its own Query.  ComObject supersedes
// it; it remains for code that predates the skeleton.
#define OSKIT_REFCOUNTED_BOILERPLATE()                       \
  uint32_t AddRef() override { return this->AddRefImpl(); } \
  uint32_t Release() override { return this->ReleaseImpl(); }

namespace com_internal {

// Stands in for a listed interface that another listed one already derives
// from (BlkIo beside BufIo, File beside Dir), so it is inherited once.
template <typename I>
struct Elided {};

template <typename I, typename... All>
using BaseFor =
    std::conditional_t<((std::is_base_of_v<I, All> && !std::is_same_v<I, All>) ||
                        ...),
                       Elided<I>, I>;

}  // namespace com_internal

// The one COM object skeleton: ComObject<Derived, Ifaces...> inherits each
// listed interface and supplies all of IUnknown for it.
//
//  * Query answers IUnknown (as the first listed interface) and each listed
//    interface that Derived::Grants(iid) allows, and nothing else.  The
//    default Grants allows every listed one; a component whose interfaces
//    depend on its state (a datagram socket has no zero-copy face) hides it
//    with its own.
//  * AddRef/Release keep the count; Derived::OnLastRelease() runs once,
//    just before the last reference goes, for side effects that must happen
//    while the object is still whole (detaching from a protocol stack).
//
// Derived writes only its interface methods.  A component with an answer
// no fixed list can express (a tear-off object, a private implementation
// GUID) overrides Query, handles that one case and calls ComObject::Query.
template <typename Derived, typename... Ifaces>
class ComObject : public com_internal::BaseFor<Ifaces, Ifaces...>...,
                  public RefCounted<Derived> {
 public:
  Error Query(const Guid& iid, void** out) override {
    *out = nullptr;
    if (iid == IUnknown::kIid) {
      *out = static_cast<std::tuple_element_t<0, std::tuple<Ifaces...>>*>(this);
    } else if (!(Answer<Ifaces>(iid, out) || ...)) {
      return Error::kNoInterface;
    }
    AddRef();
    return Error::kOk;
  }

  uint32_t AddRef() final { return this->AddRefImpl(); }

  uint32_t Release() final {
    if (this->ref_count() == 1) {
      static_cast<Derived*>(this)->OnLastRelease();
    }
    return this->ReleaseImpl();
  }

  // Derived's hooks, hidden by a same-named member of Derived.
  bool Grants(const Guid&) const { return true; }
  void OnLastRelease() {}

 private:
  template <typename I>
  bool Answer(const Guid& iid, void** out) {
    if (iid != I::kIid || !static_cast<Derived*>(this)->Grants(iid)) {
      return false;
    }
    *out = static_cast<I*>(this);
    return true;
  }
};

}  // namespace oskit

#endif  // OSKIT_SRC_COM_IUNKNOWN_H_
