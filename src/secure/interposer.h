// The one interposer skeleton behind every §3.8 COM security wrapper.
//
// Interposer<Derived, Inner, Ext...> is a ComObject (src/com/iunknown.h)
// listing Inner and the extensions Ext, plus the delegation contract that
// each wrapper in src/secure would otherwise repeat:
//
//   * it holds the owned reference on the inner object (inner());
//   * it grants each extension Ext only when the inner object itself grants
//     it (probed once, at construction, and kept as ext<Ext>()).  Query
//     answers nothing else, so an unknown GUID is never forwarded to the
//     inner object: a forwarded extension would be an unwrapped path around
//     the checks;
//   * Derived's OnLastRelease() is where wrappers credit back what they
//     charged;
//   * Unwrap() recognizes one of Derived's own objects passed back in as a
//     peer argument (a Rename destination, a socket handed to a selector),
//     so the inner object receives its own peer, never a wrapper.
//
// The wrapper class implements every listed interface.

#ifndef OSKIT_SRC_SECURE_INTERPOSER_H_
#define OSKIT_SRC_SECURE_INTERPOSER_H_

#include <tuple>
#include <utility>

#include "src/com/iunknown.h"

namespace oskit::secure {

template <typename Derived, typename Inner, typename... Ext>
class Interposer : public ComObject<Derived, Inner, Ext...> {
 public:
  explicit Interposer(ComPtr<Inner> inner)
      : inner_(std::move(inner)),
        exts_(ComPtr<Ext>::FromQuery(inner_.get())...) {}

  bool Grants(const Guid& iid) const {
    return ((iid != Ext::kIid || ext<Ext>() != nullptr) && ...);
  }

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
  ComPtr<Inner> inner_;
  std::tuple<ComPtr<Ext>...> exts_;
};

}  // namespace oskit::secure

#endif  // OSKIT_SRC_SECURE_INTERPOSER_H_
