// Network packet I/O interface.
//
// The OSKit connects drivers and protocol stacks with symmetric "push"
// endpoints (§5): when the client binds a stack to a driver they exchange
// NetIo callbacks; the driver pushes received packets into the stack's NetIo
// and the stack pushes outgoing packets into the driver's NetIo.  Packets
// are opaque BufIo objects, so neither side sees the other's buffer scheme.

#ifndef OSKIT_SRC_COM_NETIO_H_
#define OSKIT_SRC_COM_NETIO_H_

#include "src/com/bufio.h"

namespace oskit {

class NetIo : public IUnknown {
 public:
  static constexpr Guid kIid = MakeGuid(0x4aa7dfec, 0x7c74, 0x11cf, 0xb5, 0x00, 0x08,
                                        0x00, 0x09, 0x53, 0xad, 0xc2);

  // Delivers one packet of `size` bytes.  The callee may Map() the buffer for
  // zero-copy access or Read() it; it must take its own reference if it keeps
  // the packet beyond the call.
  virtual Error Push(BufIo* packet, size_t size) = 0;

 protected:
  ~NetIo() = default;
};

// Batched delivery, the §4.4.2 interface-extension idiom: a receiver that
// can amortize per-packet work (one TCP delayed-ACK/scheduling pass per
// burst instead of per frame) additionally implements NetIoBatch, and a
// polled driver discovers it via Query.  Pushes between BeginBatch() and
// EndBatch() may defer their response processing until EndBatch(); the
// bracket must not be nested.  A receiver exposing only plain NetIo gets
// per-packet behaviour, unchanged.
class NetIoBatch : public NetIo {
 public:
  static constexpr Guid kIid = MakeGuid(0x4aa7dfee, 0x7c74, 0x11cf, 0xb5, 0x00, 0x08,
                                        0x00, 0x09, 0x53, 0xad, 0xc2);

  virtual void BeginBatch() = 0;
  virtual void EndBatch() = 0;

 protected:
  ~NetIoBatch() = default;
};

}  // namespace oskit

#endif  // OSKIT_SRC_COM_NETIO_H_
