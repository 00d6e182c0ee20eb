// The one interposer skeleton behind every §3.8 COM security wrapper.
//
// Interposer<Derived, Inner, Ext...> owns the delegation contract that each
// wrapper in src/secure would otherwise repeat:
//
//   * it holds the owned reference on the inner object (inner());
//   * Query answers exactly IUnknown, Inner, and each extension Ext that the
//     inner object itself grants (probed once, at construction, and kept as
//     ext<Ext>()) — an unknown GUID is never forwarded to the inner object,
//     since a forwarded extension would be an unwrapped path around the
//     checks;
//   * the reference count lives here, and Derived's OnLastRelease() runs
//     once, just before the last reference goes (where wrappers credit back
//     what they charged);
//   * Unwrap() recognizes one of Derived's own objects passed back in as a
//     peer argument (a Rename destination, a socket handed to a selector),
//     so the inner object receives its own peer, never a wrapper.
//
// The wrapper class implements every listed interface; an extension that
// already derives from Inner (Dir from File, BufIo from BlkIo) supplies
// Inner as well, so Inner is inherited once.

#ifndef OSKIT_SRC_SECURE_INTERPOSER_H_
#define OSKIT_SRC_SECURE_INTERPOSER_H_

#include <tuple>
#include <type_traits>
#include <utility>

#include "src/com/iunknown.h"

namespace oskit::secure {

struct NoBase {};

template <typename Inner, typename... Ext>
using InterposerBase =
    std::conditional_t<(std::is_base_of_v<Inner, Ext> || ...), NoBase,
                       Inner>;

template <typename Derived, typename Inner, typename... Ext>
class Interposer : public InterposerBase<Inner, Ext...>,
                   public Ext...,
                   public RefCounted<Derived> {
 public:
  explicit Interposer(ComPtr<Inner> inner)
      : inner_(std::move(inner)),
        exts_(ComPtr<Ext>::FromQuery(inner_.get())...) {}

  Error Query(const Guid& iid, void** out) final {
    *out = nullptr;
    if (iid == IUnknown::kIid || iid == Inner::kIid) {
      *out = static_cast<Inner*>(this);
    } else if (!(Grant<Ext>(iid, out) || ...)) {
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

  // Derived's hook for its symmetric credits; the default has none.
  void OnLastRelease() {}

  // The wrapper of this class behind a peer argument, or null when `peer`
  // is some other object (which is then passed on as it is).
  template <typename Peer>
  static Derived* Unwrap(Peer* peer) {
    return dynamic_cast<Derived*>(peer);
  }

  Inner* inner() const { return inner_.get(); }

  // The inner object's extension E, or null when it does not grant E.
  template <typename E>
  E* ext() const {
    return std::get<ComPtr<E>>(exts_).get();
  }

 private:
  // Answers extension E only when the inner object granted it.
  template <typename E>
  bool Grant(const Guid& iid, void** out) {
    if (iid != E::kIid || ext<E>() == nullptr) {
      return false;
    }
    *out = static_cast<E*>(this);
    return true;
  }

  ComPtr<Inner> inner_;
  std::tuple<ComPtr<Ext>...> exts_;
};

}  // namespace oskit::secure

#endif  // OSKIT_SRC_SECURE_INTERPOSER_H_
