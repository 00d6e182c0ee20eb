// The stack's NetSelector implementation (src/com/netselector.h).
//
// One selector holds a registration table (socket -> interest/trigger/token)
// and a FIFO ready list.  The stack calls SocketReady whenever a socket's
// readiness may have changed (data arrived, window opened, accept queue grew,
// state change, error); the selector enqueues the socket if the change is
// interesting and it is not already queued, and wakes any parked Wait.
//
// Edge vs level is a harvest-time distinction: an edge registration leaves
// the ready list when harvested and will not reappear until a fresh
// notification; a level registration is re-appended while the condition
// still holds.  The harvest loop scans at most the ready-list length at
// entry, so level re-enqueues land beyond the scan bound and one chatty
// socket cannot monopolize a small harvest capacity.
//
// Registrations are weak: no reference is taken, and a dying socket
// (~BsdSocket) unregisters itself via SocketGone.

#ifndef OSKIT_SRC_NET_SELECTOR_H_
#define OSKIT_SRC_NET_SELECTOR_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/com/netselector.h"
#include "src/net/stack.h"

namespace oskit::net {

class BsdSelector final : public ComObject<BsdSelector, NetSelector> {
 public:
  explicit BsdSelector(NetStack* stack);

  // NetSelector
  Error Add(Socket* socket, uint32_t interest, bool edge, void* token) override;
  Error Modify(Socket* socket, uint32_t interest, bool edge) override;
  Error Remove(Socket* socket) override;
  Error Wait(NetReadyEvent* out_events, size_t capacity, bool block,
             size_t* out_count) override;

  size_t registered() const { return regs_.size(); }
  size_t ready_depth() const { return ready_.size(); }

 private:
  friend class NetStack;
  friend class BsdSocket;
  friend class RefCounted<BsdSelector>;
  ~BsdSelector();

  struct Reg {
    uint32_t interest;
    bool edge;
    void* token;
    bool queued = false;  // currently on the ready_ deque
  };

  // Stack-side hooks.
  void SocketReady(BsdSocket* so);
  void SocketGone(BsdSocket* so);

  size_t Harvest(NetReadyEvent* out, size_t capacity);
  void ScrubReady(BsdSocket* so);
  void DropRegistration(std::unordered_map<BsdSocket*, Reg>::iterator it);

  NetStack* stack_;
  std::unordered_map<BsdSocket*, Reg> regs_;
  std::deque<BsdSocket*> ready_;
};

}  // namespace oskit::net

#endif  // OSKIT_SRC_NET_SELECTOR_H_
