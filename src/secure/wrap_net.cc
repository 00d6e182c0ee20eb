// Network-side security wrappers: NetGuard (the stack's SoAccounting
// implementation), SecureSocket/SecureSocketFactory, and SecureSelector.
//
// Charge points and their symmetric credits:
//
//   kSockets       factory Create / Accept(child)        wrapper's last Release
//   kPorts         first op that consumes a local port   wrapper's last Release
//   kSelectorRegs  selector Add                          Remove / socket death /
//                                                        selector teardown
//   kMbufBytes     in-stack RX delivery (NetGuard)       in-stack recv drain /
//                                                        pcb teardown
//
// The port charge deliberately lands BEFORE the inner call, so a tenant at
// its port budget gets kQuotaExceeded without consuming a real ephemeral
// port; if the inner op then fails without binding one (GetSockName still
// reports port 0), the charge is credited straight back.

#include <cstddef>
#include <unordered_map>
#include <utility>

#include "src/secure/interposer.h"
#include "src/secure/wrap.h"

namespace oskit::secure {

// ---------------------------------------------------------------------------
// NetGuard: the in-stack degradation hooks
// ---------------------------------------------------------------------------

Principal* NetGuard::OwnerOf(Socket* inner) const {
  auto it = owners_.find(inner);
  return it != owners_.end() ? it->second : nullptr;
}

bool NetGuard::AdmitSyn(Socket* listener) {
  Principal* p = OwnerOf(listener);
  if (p == nullptr) {
    return true;  // unattributed listeners are never shed
  }
  uint64_t limit = p->budget().Get(Resource::kSockets);
  if (limit == Budget::kUnlimited ||
      p->charged(Resource::kSockets) < limit) {
    return true;
  }
  // The tenant could not accept this connection anyway: shed the SYN at
  // admission (peer retries) instead of parking a child it may never drain.
  p->CountDenial(Resource::kSockets);
  return false;
}

bool NetGuard::ChargeRx(Socket* owner, void** tag, size_t bytes) {
  Principal* p = static_cast<Principal*>(*tag);
  if (p == nullptr) {
    p = OwnerOf(owner);
    if (p == nullptr) {
      return true;  // unattributed traffic: deliver uncharged
    }
    // Remember the principal on the pcb: teardown credits must reach the
    // right books even after the socket detaches from the pcb.
    *tag = p;
  }
  return Ok(p->Charge(Resource::kMbufBytes, bytes));
}

void NetGuard::CreditRx(void* tag, size_t bytes) {
  if (tag != nullptr) {
    static_cast<Principal*>(tag)->Credit(Resource::kMbufBytes, bytes);
  }
}

// ---------------------------------------------------------------------------
// SecureSocket / SecureSelector
// ---------------------------------------------------------------------------

namespace {

class SecureSelector;

class SecureSocket final
    : public Interposer<SecureSocket, Socket, SocketExt> {
 public:
  // Adopts `inner` (its kSockets unit already charged by the caller).
  SecureSocket(ComPtr<Socket> inner, Principal* p, NetGuard* guard)
      : Interposer(std::move(inner)), principal_(p), guard_(guard) {
    guard_->RegisterSocket(this->inner(), principal_);
  }

  void OnLastRelease();

  // Socket
  Error Bind(const SockAddr& addr) override {
    if (addr.port == 0) {
      return inner()->Bind(addr);  // binds an address, not a port
    }
    Error err = EnsurePortCharge();
    if (!Ok(err)) {
      return err;
    }
    err = inner()->Bind(addr);
    if (!Ok(err)) {
      ReleasePortChargeIfUnbound();
    }
    return err;
  }

  Error Connect(const SockAddr& addr) override {
    Error err = EnsurePortCharge();
    if (!Ok(err)) {
      return err;
    }
    err = inner()->Connect(addr);
    // kWouldBlock is an in-flight handshake: the port is consumed.  Other
    // failures keep the charge only if a port really was bound (refused
    // connections still hold their ephemeral port until close).
    if (!Ok(err) && err != Error::kWouldBlock) {
      ReleasePortChargeIfUnbound();
    }
    return err;
  }

  Error Listen(int backlog) override { return inner()->Listen(backlog); }

  Error Accept(SockAddr* out_peer, Socket** out_socket) override {
    // Charge AFTER the inner accept, not before: a blocking Accept can park
    // here indefinitely, and a unit reserved across that wait would read as
    // "budget full" to the SYN-admission hook — admission and reservation
    // would deadlock each other.  AdmitSyn is the early gate; this charge is
    // the backstop for connections that slipped in under a lower charge.
    *out_socket = nullptr;
    ComPtr<Socket> child;
    Error err = inner()->Accept(out_peer, child.Receive());
    if (!Ok(err)) {
      return err;
    }
    err = principal_->Charge(Resource::kSockets, 1);
    if (!Ok(err)) {
      child.Reset();  // closes the over-budget child: a reset, never a hang
      return err;
    }
    *out_socket = new SecureSocket(std::move(child), principal_, guard_);
    return Error::kOk;
  }

  Error Send(const void* buf, size_t amount, size_t* out_actual) override {
    return inner()->Send(buf, amount, out_actual);
  }
  Error Recv(void* buf, size_t amount, size_t* out_actual) override {
    return inner()->Recv(buf, amount, out_actual);
  }

  Error SendTo(const void* buf, size_t amount, const SockAddr& to,
               size_t* out_actual) override {
    Error err = EnsurePortCharge();  // first datagram binds an ephemeral port
    if (!Ok(err)) {
      return err;
    }
    err = inner()->SendTo(buf, amount, to, out_actual);
    if (!Ok(err)) {
      ReleasePortChargeIfUnbound();
    }
    return err;
  }

  Error RecvFrom(void* buf, size_t amount, SockAddr* out_from,
                 size_t* out_actual) override {
    return inner()->RecvFrom(buf, amount, out_from, out_actual);
  }

  Error Shutdown(SockShutdown how) override { return inner()->Shutdown(how); }
  Error GetSockName(SockAddr* out_addr) override {
    return inner()->GetSockName(out_addr);
  }
  Error GetPeerName(SockAddr* out_addr) override {
    return inner()->GetPeerName(out_addr);
  }

  // SocketExt (exposed via Query only when the inner socket has it)
  Error SetNonBlocking(bool on) override {
    return ext<SocketExt>() != nullptr ? ext<SocketExt>()->SetNonBlocking(on)
                                       : Error::kNotImpl;
  }
  Error AcceptBatch(SockAddr* out_peers, Socket** out_sockets, size_t capacity,
                    size_t* out_count) override;

  void set_selector(SecureSelector* sel) { selector_ = sel; }

 private:
  Error EnsurePortCharge() {
    if (port_charged_) {
      return Error::kOk;
    }
    Error err = principal_->Charge(Resource::kPorts, 1);
    if (Ok(err)) {
      port_charged_ = true;
    }
    return err;
  }

  void ReleasePortChargeIfUnbound() {
    if (!port_charged_) {
      return;
    }
    SockAddr local{};
    if (Ok(inner()->GetSockName(&local)) && local.port == 0) {
      principal_->Credit(Resource::kPorts, 1);
      port_charged_ = false;
    }
  }

  Principal* principal_;
  NetGuard* guard_;
  SecureSelector* selector_ = nullptr;  // set while registered with one
  bool port_charged_ = false;
};

class SecureSelector final : public Interposer<SecureSelector, NetSelector> {
 public:
  SecureSelector(ComPtr<NetSelector> inner, Principal* p)
      : Interposer(std::move(inner)), principal_(p) {}

  // Teardown: every registration still standing is credited back.
  void OnLastRelease() {
    for (auto& [inner_socket, wrapper] : registrations_) {
      if (wrapper != nullptr) {
        wrapper->set_selector(nullptr);
      }
      principal_->Credit(Resource::kSelectorRegs, 1);
    }
    registrations_.clear();
  }

  Error Add(Socket* socket, uint32_t interest, bool edge,
            void* token) override {
    Error err = principal_->Charge(Resource::kSelectorRegs, 1);
    if (!Ok(err)) {
      return err;
    }
    SecureSocket* wrapper = SecureSocket::Unwrap(socket);
    Socket* target = wrapper != nullptr ? wrapper->inner() : socket;
    err = inner()->Add(target, interest, edge, token);
    if (!Ok(err)) {
      principal_->Credit(Resource::kSelectorRegs, 1);
      return err;
    }
    registrations_[target] = wrapper;
    if (wrapper != nullptr) {
      wrapper->set_selector(this);
    }
    return Error::kOk;
  }

  Error Modify(Socket* socket, uint32_t interest, bool edge) override {
    return inner()->Modify(InnerOf(socket), interest, edge);
  }

  Error Remove(Socket* socket) override {
    Socket* target = InnerOf(socket);
    auto it = registrations_.find(target);
    if (it != registrations_.end()) {
      if (it->second != nullptr) {
        it->second->set_selector(nullptr);
      }
      registrations_.erase(it);
      principal_->Credit(Resource::kSelectorRegs, 1);
    }
    return inner()->Remove(target);
  }

  Error Wait(NetReadyEvent* out_events, size_t capacity, bool block,
             size_t* out_count) override {
    Error err = inner()->Wait(out_events, capacity, block, out_count);
    if (!Ok(err)) {
      return err;
    }
    // Harvested events reference the inner sockets; hand the tenant back the
    // wrappers it registered (pass-through registrations stay as-is).
    for (size_t i = 0; i < *out_count; ++i) {
      auto it = registrations_.find(out_events[i].socket);
      if (it != registrations_.end() && it->second != nullptr) {
        out_events[i].socket = it->second;
      }
    }
    return Error::kOk;
  }

  // Called by a dying SecureSocket still registered here: drop the
  // registration (and its charge) before the inner socket disappears.
  void NoteSocketDead(Socket* inner_socket) {
    auto it = registrations_.find(inner_socket);
    if (it == registrations_.end()) {
      return;
    }
    registrations_.erase(it);
    principal_->Credit(Resource::kSelectorRegs, 1);
    inner()->Remove(inner_socket);  // weak reg: already gone is fine
  }

 private:
  static Socket* InnerOf(Socket* socket) {
    SecureSocket* wrapper = SecureSocket::Unwrap(socket);
    return wrapper != nullptr ? wrapper->inner() : socket;
  }

  Principal* principal_;
  // inner socket -> the wrapper the tenant registered (null: pass-through).
  std::unordered_map<Socket*, SecureSocket*> registrations_;
};

Error SecureSocket::AcceptBatch(SockAddr* out_peers, Socket** out_sockets,
                                size_t capacity, size_t* out_count) {
  *out_count = 0;
  if (ext<SocketExt>() == nullptr) {
    return Error::kNotImpl;
  }
  // Admit only as many children as the socket budget has headroom for.  At
  // zero headroom the call degrades from AcceptBatch's always-kOk contract
  // to an explicit, counted kQuotaExceeded — never a hang, and the children
  // stay queued for when the budget frees up.
  size_t allowed = capacity;
  uint64_t limit = principal_->budget().Get(Resource::kSockets);
  if (limit != Budget::kUnlimited) {
    uint64_t used = principal_->charged(Resource::kSockets);
    uint64_t headroom = limit > used ? limit - used : 0;
    if (headroom == 0 && capacity > 0) {
      principal_->CountDenial(Resource::kSockets);
      return Error::kQuotaExceeded;
    }
    if (headroom < allowed) {
      allowed = static_cast<size_t>(headroom);
    }
  }
  Error err =
      ext<SocketExt>()->AcceptBatch(out_peers, out_sockets, allowed, out_count);
  if (!Ok(err)) {
    return err;
  }
  for (size_t i = 0; i < *out_count; ++i) {
    // Cannot exceed the limit: headroom was computed under the one-thread-
    // per-component model, so ForceCharge just books the reserved units.
    principal_->ForceCharge(Resource::kSockets, 1);
    out_sockets[i] =
        new SecureSocket(ComPtr<Socket>(out_sockets[i]), principal_, guard_);
  }
  return Error::kOk;
}

// Teardown; the inner socket's last reference goes right after, and with it
// the inner socket detaches from its pcb.
void SecureSocket::OnLastRelease() {
  if (selector_ != nullptr) {
    selector_->NoteSocketDead(inner());
    selector_ = nullptr;
  }
  guard_->UnregisterSocket(inner());
  if (port_charged_) {
    principal_->Credit(Resource::kPorts, 1);
    port_charged_ = false;
  }
  principal_->Credit(Resource::kSockets, 1);
}

// ---------------------------------------------------------------------------
// SecureSocketFactory
// ---------------------------------------------------------------------------

class SecureSocketFactory final
    : public Interposer<SecureSocketFactory, SocketFactory> {
 public:
  SecureSocketFactory(ComPtr<SocketFactory> inner, Principal* p,
                      NetGuard* guard)
      : Interposer(std::move(inner)), principal_(p), guard_(guard) {}

  Error Create(SockDomain domain, SockType type,
               Socket** out_socket) override {
    *out_socket = nullptr;
    if (!principal_->acl().allow_net) {
      principal_->CountDenial(Resource::kSockets);
      return Error::kAccess;
    }
    Error err = principal_->Charge(Resource::kSockets, 1);
    if (!Ok(err)) {
      return err;
    }
    ComPtr<Socket> inner_socket;
    err = inner()->Create(domain, type, inner_socket.Receive());
    if (!Ok(err)) {
      principal_->Credit(Resource::kSockets, 1);
      return err;
    }
    *out_socket = new SecureSocket(std::move(inner_socket), principal_, guard_);
    return Error::kOk;
  }

 private:
  Principal* principal_;
  NetGuard* guard_;
};

}  // namespace

ComPtr<SocketFactory> MakeSecureSocketFactory(ComPtr<SocketFactory> inner,
                                              Principal* p, NetGuard* guard) {
  return ComPtr<SocketFactory>(
      new SecureSocketFactory(std::move(inner), p, guard));
}

ComPtr<NetSelector> MakeSecureSelector(ComPtr<NetSelector> inner,
                                       Principal* p) {
  return ComPtr<NetSelector>(new SecureSelector(std::move(inner), p));
}

}  // namespace oskit::secure
