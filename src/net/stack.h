// The FreeBSD-idiom TCP/IP protocol stack component (paper §3.7).
//
// Internally everything is mbuf chains and BSD conventions: sleep/wakeup on
// wait channels backed by an event hash (§4.7.6), manufactured "current
// process" records (§4.7.5), sockbufs, PCB lists, and the BSD 200ms/500ms
// protocol timer periods (kept on a timer wheel rather than swept).
// Externally it exposes exactly what the paper's component does:
//
//   * a COM SocketFactory (so the minimal C library's socket() can use it);
//   * a driver binding that exchanges NetIo callbacks with any EtherDev
//     (§5) — packets cross that boundary as opaque BufIo objects;
//   * a native binding used by the "FreeBSD itself" baseline configuration,
//     where the BSD-idiom driver consumes mbuf chains directly with no COM
//     boundary (this is the Table 1 "FreeBSD" row).
//
// Protocols: ARP, IPv4 (with fragmentation/reassembly), ICMP echo, UDP, and
// TCP (3-way handshake, sliding window, RTT estimation with Karn backoff,
// slow start/congestion avoidance, fast retransmit, delayed ACK, the full
// teardown state machine including TIME_WAIT, which a connection the
// application has released waits out in a compact record instead of a pcb).

#ifndef OSKIT_SRC_NET_STACK_H_
#define OSKIT_SRC_NET_STACK_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/com/etherdev.h"
#include "src/com/netio.h"
#include "src/com/netselector.h"
#include "src/com/socket.h"
#include "src/fault/fault.h"
#include "src/machine/clock.h"
#include "src/net/mbuf.h"
#include "src/net/timer_wheel.h"
#include "src/net/wire_formats.h"
#include "src/sleep/sleep.h"
#include "src/trace/trace.h"

namespace oskit::net {

// ---------------------------------------------------------------------------
// BSD sleep/wakeup emulation (paper §4.7.5 / §4.7.6)
// ---------------------------------------------------------------------------

// The component-wide event hash: "the BSD sleep/wakeup mechanism uses a
// global hash table of events ... in the encapsulated BSD-based OSKit
// components we retain BSD's original event hash table management code;
// however, the hash table is now only used within that particular component"
// — with each sleeping "process" being a record manufactured on the stack of
// the thread of control entering the component (§4.7.5), blocked on an OSKit
// sleep record (§4.7.6).
class BsdSleepWakeup {
 public:
  explicit BsdSleepWakeup(SleepEnv* env,
                          trace::FlightRecorder* recorder = nullptr)
      : env_(env), recorder_(recorder) {}

  // Blocks the calling thread of control on `chan`.
  void Sleep(const void* chan);

  // Wakes every sleeper on `chan`.  Safe from interrupt level.
  void Wakeup(const void* chan);

  trace::Counter& sleeps_counter() { return sleeps_; }
  trace::Counter& wakeups_counter() { return wakeups_; }
  uint64_t sleeps() const { return sleeps_; }
  uint64_t wakeups() const { return wakeups_; }

 private:
  static constexpr size_t kBuckets = 64;

  struct EmulatedProc {
    SleepRecord record;
    const void* chan;
    EmulatedProc* next;
    explicit EmulatedProc(SleepEnv* env) : record(env), chan(nullptr), next(nullptr) {}
  };

  size_t BucketOf(const void* chan) const {
    return (reinterpret_cast<uintptr_t>(chan) >> 4) % kBuckets;
  }

  SleepEnv* env_;
  trace::FlightRecorder* recorder_;
  EmulatedProc* buckets_[kBuckets] = {};
  trace::Counter sleeps_;
  trace::Counter wakeups_;
};

// ---------------------------------------------------------------------------
// Socket buffers (BSD sockbuf)
// ---------------------------------------------------------------------------

struct SockBuf {
  MBuf* head = nullptr;
  MBuf* tail = nullptr;
  size_t cc = 0;      // bytes queued
  size_t hiwat = 0;   // capacity

  size_t Space() const { return cc >= hiwat ? 0 : hiwat - cc; }
};

// ---------------------------------------------------------------------------
// Protocol control blocks
// ---------------------------------------------------------------------------

class NetStack;
class BsdSocket;
class BsdSelector;
struct TcpPcb;
struct TcpTimeWait;
struct UdpPcb;

// NetStack's pcb lists, in creation order: the order Netstat walks.
using TcpPcbList = std::list<std::unique_ptr<TcpPcb>>;
using UdpPcbList = std::list<std::unique_ptr<UdpPcb>>;

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kCloseWait,
  kFinWait1,
  kFinWait2,
  kClosing,
  kLastAck,
  kTimeWait,
};

const char* TcpStateName(TcpState s);

// A connection's 4-tuple, the key of the demux indices, and where it sits in
// its local-port bucket.  Shared by the pcb and the TIME_WAIT record so the
// indices treat both alike.
struct TcpEndpoints {
  // Not in a bucket, or at an index 16 bits cannot name (a bucket that
  // large is searched instead).
  static constexpr uint16_t kNoSlot = 0xffff;

  InetAddr laddr;
  InetAddr faddr;
  uint16_t lport = 0;
  uint16_t fport = 0;
  uint16_t lport_slot = kNoSlot;  // index in tcp_by_lport_[lport]
};

struct TcpPcb : TcpEndpoints {
  TcpState state = TcpState::kClosed;

  // Send sequence space.
  uint32_t iss = 0;
  uint32_t snd_una = 0;
  uint32_t snd_nxt = 0;
  uint32_t snd_max = 0;   // highest sequence sent
  uint32_t snd_wnd = 0;   // peer's advertised window
  uint32_t snd_cwnd = 0;
  uint32_t snd_ssthresh = 0;
  uint32_t dup_acks = 0;

  // Receive sequence space.
  uint32_t irs = 0;
  uint32_t rcv_nxt = 0;

  uint16_t mss = 1460;

  // Buffers.
  SockBuf snd;  // unacknowledged + unsent bytes, snd.head starts at snd_una
  SockBuf rcv;  // in-order bytes awaiting the application

  // Reassembly queue for out-of-order segments, sorted by seq.
  struct OooSegment {
    uint32_t seq;
    MBuf* data;  // payload only
  };
  std::list<OooSegment> reass;

  int rexmt_shift = 0;  // backoff exponent

  // Timers, on the stack's wheel (src/net/timer_wheel.h); a handle is the
  // timer's only state.  Intrusive, so a pcb deleted with live timers
  // self-cancels.
  WheelTimer rexmt_wheel;
  WheelTimer persist_wheel;
  WheelTimer conn_wheel;  // handshake give-up
  WheelTimer time_wait_wheel;
  WheelTimer delack_wheel;

  // RTT estimation (BSD units: srtt scaled by 8, rttvar by 4).
  int srtt = 0;
  int rttvar = 12;  // => initial RTO of 12 ticks (6 s), the BSD default
  bool rtt_timing = false;      // a segment of new data is being timed
  uint64_t rtt_start_slow = 0;  // slow tick the timing started
  uint32_t rtt_seq = 0;         // sequence being timed

  bool delayed_ack = false;
  bool fin_queued = false;     // application closed its write side
  bool fin_sent = false;
  bool peer_fin_seen = false;
  Error so_error = Error::kOk;

  // Listen state.  The SYN queue holds half-open children (SYN_RCVD); on
  // the third handshake step they migrate to the accept queue.  A SYN
  // arriving when syn_queue + accept_queue is at capacity is dropped and
  // counted (net.tcp.listen_overflows).
  std::list<TcpPcb*> accept_queue;
  std::list<TcpPcb*> syn_queue;
  TcpPcb* listener = nullptr;
  int backlog = 0;

  BsdSocket* socket = nullptr;  // null once detached
  bool detached = false;

  // Per-principal accounting (SoAccounting): bytes charged against the
  // owner's mbuf budget that have not been credited back yet, and the
  // accountant's attribution tag.  rx_charged is drained symmetrically by
  // SoRecv and zeroed at TcpCloseDone reaping, so the books always balance.
  size_t rx_charged = 0;
  void* acct_tag = nullptr;

  // This pcb's node in NetStack::tcp_pcbs_ (set by AddTcpPcb).  Last, so it
  // shifts none of the fields the segment path touches.
  TcpPcbList::iterator self;

  int RtoTicks() const {
    int rto = (srtt >> 3) + rttvar;
    if (rto < 2) {
      rto = 2;  // 1 s floor, like old BSD
    }
    int shifted = rto << rexmt_shift;
    return shifted > 128 ? 128 : shifted;
  }
};

// A released connection waiting out 2MSL.  When a detached pcb reaches
// TIME_WAIT with nothing left to send, deliver or credit, the stack frees it
// and keeps only what TIME_WAIT still answers with (TcpTimeWaitInput): our
// FIN is acknowledged, so snd_una == snd_nxt == snd_max, and the peer's
// FIN is in, so rcv_nxt is final.  The record takes the pcb's place in both
// demux indices, so it holds its local port exactly as the pcb did.
struct TcpTimeWait : TcpEndpoints {
  uint16_t rcv_wnd = 0;  // the window every answer advertises
  uint32_t snd_nxt = 0;
  uint32_t rcv_nxt = 0;
  WheelTimer expiry;     // 2MSL, carried over from the pcb's timer
};

// The 4-tuple and its bucket slot, a window (in the endpoints' tail
// padding), two sequence numbers, then the timer: a record must stay a
// fraction of a pcb.
static_assert(sizeof(TcpTimeWait) == 24 + sizeof(WheelTimer));

// What the demux indices hold for a connection: its pcb, or its TIME_WAIT
// record once the pcb is retired.  One word, tagged in the low bit.
class TcpConnRef {
 public:
  TcpConnRef() = default;
  TcpConnRef(TcpPcb* pcb) : bits_(reinterpret_cast<uintptr_t>(pcb)) {}
  TcpConnRef(TcpTimeWait* tw) : bits_(reinterpret_cast<uintptr_t>(tw) | 1) {}

  // Null for a record.
  TcpPcb* pcb() const {
    return (bits_ & 1) != 0 ? nullptr : reinterpret_cast<TcpPcb*>(bits_);
  }
  // Null for a pcb.
  TcpTimeWait* time_wait() const {
    return (bits_ & 1) != 0 ? reinterpret_cast<TcpTimeWait*>(bits_ & ~uintptr_t{1})
                            : nullptr;
  }
  TcpEndpoints& ends() const {
    if (TcpTimeWait* tw = time_wait()) {
      return *tw;
    }
    return *pcb();
  }
  friend bool operator==(TcpConnRef, TcpConnRef) = default;

 private:
  uintptr_t bits_ = 0;
};

struct UdpPcb {
  InetAddr laddr;
  uint16_t lport = 0;
  InetAddr faddr;
  uint16_t fport = 0;
  bool connected = false;

  struct Datagram {
    SockAddr from;
    MBuf* data;
  };
  std::list<Datagram> rcv_queue;
  size_t rcv_bytes = 0;
  size_t rcv_hiwat = 64 * 1024;

  BsdSocket* socket = nullptr;
  bool detached = false;

  // Per-principal accounting, as in TcpPcb.
  size_t rx_charged = 0;
  void* acct_tag = nullptr;

  UdpPcbList::iterator self;  // node in NetStack::udp_pcbs_
};

// ---------------------------------------------------------------------------
// Per-principal accounting hooks (src/secure)
// ---------------------------------------------------------------------------

// Graceful-degradation enforcement points that live BELOW the socket API,
// where a greedy tenant's traffic lands without any COM call to interpose
// on.  The security layer (src/secure) implements this and attributes each
// socket to a principal; the stack stays principal-agnostic.
//
// Attribution uses an opaque per-pcb tag: the first ChargeRx sets *tag from
// the owning socket (the listener's socket for not-yet-accepted children),
// and later charges/credits pass it back — so credits still reach the right
// books after the socket detaches from the pcb.
class SoAccounting {
 public:
  virtual ~SoAccounting() = default;

  // LISTEN SYN admission, consulted after the backlog check.  Returning
  // false sheds the SYN (counted net.tcp.syn_admission_shed): the peer
  // retransmits, so an over-budget tenant's connection storm degrades into
  // slow connects instead of starving other listeners' memory.
  virtual bool AdmitSyn(Socket* listener) = 0;

  // RX delivery: charge `bytes` against the owner before they enter the
  // receive buffer.  Returning false sheds the segment/datagram unACKed
  // (counted net.rx.quota_shed); TCP peers retransmit, so nothing is lost —
  // the tenant is simply flow-controlled at its mbuf budget.
  virtual bool ChargeRx(Socket* owner, void** tag, size_t bytes) = 0;

  // Credits bytes drained by the application (SoRecv/SoRecvFrom) or flushed
  // at connection teardown.  `tag` is whatever ChargeRx stored.
  virtual void CreditRx(void* tag, size_t bytes) = 0;
};

// ---------------------------------------------------------------------------
// Driver bindings
// ---------------------------------------------------------------------------

// Native (non-COM) egress used by the baseline "FreeBSD itself"
// configuration: the driver consumes the mbuf chain directly.
class NativeEtherPort {
 public:
  virtual ~NativeEtherPort() = default;
  virtual EtherAddr mac() const = 0;
  // Takes ownership of `frame` (a complete Ethernet frame as an mbuf chain).
  virtual void Output(MBuf* frame) = 0;
};

// ---------------------------------------------------------------------------
// The stack
// ---------------------------------------------------------------------------

class NetStack {
 public:
  // Per-stack counters, registered with the trace environment's registry
  // under "net." names (net.tcp.retransmits, net.ip.in, ...) so clients,
  // kmon, and the benchmarks all read the same instrumentation.
  struct Counters {
    trace::Counter ip_in;
    trace::Counter ip_out;
    trace::Counter ip_bad_checksum;
    trace::Counter ip_frags_in;
    trace::Counter ip_reassembled;
    trace::Counter ip_frag_out;
    trace::Counter arp_in;
    trace::Counter arp_requests_out;
    trace::Counter icmp_echo_in;
    trace::Counter udp_in;
    trace::Counter udp_out;
    trace::Counter udp_bad_checksum;
    trace::Counter udp_no_port;
    trace::Counter tcp_in;
    trace::Counter tcp_out;
    trace::Counter tcp_bad_checksum;
    trace::Counter tcp_retransmits;
    trace::Counter tcp_fast_retransmits;
    trace::Counter tcp_delayed_acks;
    trace::Counter tcp_rx_batches;        // non-empty NetIoBatch brackets
    trace::Counter tcp_batched_outputs;   // output passes deferred to EndBatch
    trace::Counter tcp_ooo_segments;
    trace::Counter tcp_rst_out;
    trace::Counter tx_copied_bytes;       // bytes memcpy'd into the send buffer
    trace::Counter tx_sendfile_bytes;     // bytes queued zero-copy by SendBufIo
    trace::Counter tx_sendfile_fallback_bytes;  // SendBufIo bytes that copied
    trace::Counter rx_alloc_drops;        // RX import failed: no mbuf memory
    trace::Counter tx_errors;             // egress refused a frame
    trace::Counter tcp_listen_overflows;  // SYNs dropped at a full queue
    trace::Counter tcp_syn_admission_shed;  // SYNs shed by SoAccounting
    trace::Counter rx_quota_shed;         // RX deliveries shed by SoAccounting
    trace::Counter port_exhausted;        // ephemeral allocation failures
    trace::Counter pcb_hash_hits;         // demux resolved by the 4-tuple map
    trace::Counter pcb_hash_misses;       // ... fell through to the bucket walk
    trace::Counter tcp_established;       // gauge: live ESTABLISHED pcbs
    trace::Counter tcp_established_peak;
    trace::Counter tcp_time_wait;         // gauge: live TIME_WAIT records
    trace::Counter select_adds;           // NetSelector registrations
    trace::Counter select_removes;
    trace::Counter select_notifies;       // readiness notifications delivered
    trace::Counter select_wakeups;        // blocked Wait calls woken
    trace::Counter select_harvested;      // events returned by Wait
    trace::Counter select_registered;     // gauge: live registrations
  };

  // `trace` is the observability environment to report into (the testbed
  // supplies its host kernel's).
  NetStack(SleepEnv* sleep_env, SimClock* clock, trace::TraceEnv* trace);
  ~NetStack();

  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  // ---- Driver binding (§5: oskit_freebsd_net_open_ether_if) ----
  // COM binding: exchanges NetIo endpoints with the device.
  Error OpenEtherIf(EtherDev* dev, int* out_ifindex);
  // Native binding for the baseline configuration.
  Error OpenNativeIf(NativeEtherPort* port, int* out_ifindex);

  // ---- Interface configuration (oskit_freebsd_net_ifconfig) ----
  Error IfConfig(int ifindex, InetAddr addr, InetAddr netmask);

  // ---- Socket factory (registered with posix_set_socketcreator) ----
  ComPtr<SocketFactory> CreateSocketFactory();

  // ---- Readiness interface (src/com/netselector.h) ----
  ComPtr<NetSelector> CreateSelector();

  // ---- ICMP echo (ping) ----
  // Blocks until a reply arrives or `timeout_ns` elapses.
  Error Ping(InetAddr dst, SimTime timeout_ns, SimTime* out_rtt_ns);

  const Counters& counters() const { return counters_; }
  Counters& mutable_counters() { return counters_; }  // open implementation (§4.6)
  MbufPool& pool() { return pool_; }
  BsdSleepWakeup& sleep_wakeup() { return sleep_wakeup_; }
  SimClock& clock() { return *clock_; }
  trace::TraceEnv& trace() { return *trace_; }

  // Native-driver ingress: a complete Ethernet frame as an mbuf chain.
  void EtherInputMbuf(int ifindex, MBuf* frame);

  // ---- RX batching (the NetIoBatch bracket, driven by a polled driver) ----
  // Between BeginRxBatch and EndRxBatch, TcpInput defers its per-segment
  // response transmission (ACKs, window-opened sends); EndRxBatch runs one
  // TcpOutput pass per touched connection, so a poll burst costs one
  // delayed-ACK/scheduling pass instead of one per frame.
  void BeginRxBatch();
  void EndRxBatch();

  // Default socket buffer size (ttcp-era BSD default).
  static constexpr size_t kDefaultBufSize = 32 * 1024;

  // New connections size snd/rcv buffers from this (default above; capped
  // by the 16-bit advertised window — there is no window scaling here).
  // Mitigated-RX configurations raise it: coalescing parks up to ~1 ms of
  // traffic per batch, and at 100 Mbps the bandwidth-delay product across
  // that holdoff needs a deeper window to keep the wire full.
  void SetDefaultSockBuf(size_t bytes) { default_sock_buf_ = bytes; }

  // Fault-injection environment (the kernel's); null: nothing armed.
  // Probed at the RX mbuf-import boundary ("mbuf.rx_alloc").
  void SetFaultEnv(fault::FaultEnv* env) { fault_ = env; }

  // Per-principal accounting hooks (src/secure).  Null (the default) makes
  // every admission/charge a no-op.  The accountant must outlive the stack's
  // connections; install before serving multi-tenant traffic.
  void SetAccounting(SoAccounting* acct) { accounting_ = acct; }
  SoAccounting* accounting() const { return accounting_; }

  const TimerWheel& timer_wheel() const { return wheel_; }

  // kmon `netstat`: dumps PCB tables, listen queues, and selector
  // registrations, one formatted line per emit() call.
  void Netstat(const std::function<void(const char*)>& emit);

 private:
  friend class BsdSocket;
  friend class BsdSelector;
  friend class StackRecvNetIo;

  struct Iface {
    bool native = false;
    ComPtr<EtherDev> dev;
    ComPtr<NetIo> tx;           // COM path
    NativeEtherPort* port = nullptr;  // native path
    EtherAddr mac;
    InetAddr addr;
    InetAddr netmask;
    bool configured = false;
  };

  struct ArpEntry {
    EtherAddr mac;
    bool resolved = false;
    SimTime expires = 0;
    MBuf* pending = nullptr;  // one packet waiting on resolution
    uint16_t pending_type = 0;
  };

  struct FragKey {
    uint32_t src;
    uint32_t dst;
    uint16_t ident;
    uint8_t proto;
    friend bool operator<(const FragKey& a, const FragKey& b) {
      if (a.src != b.src) return a.src < b.src;
      if (a.dst != b.dst) return a.dst < b.dst;
      if (a.ident != b.ident) return a.ident < b.ident;
      return a.proto < b.proto;
    }
  };

  struct FragQueue {
    std::vector<uint8_t> data;
    std::vector<bool> have;
    size_t total_len = 0;  // 0 until the last fragment arrives
    size_t bytes_have = 0;
    SimTime deadline = 0;
  };

  struct PendingEcho {
    uint16_t ident;
    uint16_t seq;
    bool done = false;
    bool timed_out = false;
    SimTime sent_at = 0;
    SimTime rtt = 0;
  };

  // ---- link layer ----
  // Frames the payload and hands it to the interface.  A refused frame is
  // counted into tx_errors and surfaced to the caller; most callers may
  // ignore it (TCP retransmits, ARP re-requests) but nothing fails silently.
  Error EtherOutput(int ifindex, const EtherAddr& dst, uint16_t type, MBuf* payload);
  void ArpInput(int ifindex, MBuf* packet);
  void SendArpRequest(int ifindex, InetAddr target);
  // Sends an ARP packet from the interface's own MAC and address.
  void SendArp(int ifindex, uint16_t op, const EtherAddr& target_mac,
               InetAddr target_ip, const EtherAddr& dst);
  // Resolves and transmits, or queues on the ARP entry.
  void IpSendViaIface(int ifindex, InetAddr next_hop, MBuf* datagram);

  // ---- IP ----
  void IpInput(int ifindex, MBuf* packet);
  Error IpOutput(uint8_t proto, InetAddr src, InetAddr dst, MBuf* payload);
  int RouteFor(InetAddr dst, InetAddr* out_next_hop);
  void FragTimeoutSweep();

  // ---- ICMP ----
  void IcmpInput(int ifindex, const Ipv4Header& ip, MBuf* payload);

  // ---- UDP ----
  void UdpInput(const Ipv4Header& ip, MBuf* payload);
  Error UdpOutput(UdpPcb* pcb, const SockAddr& to, MBuf* payload);
  UdpPcb* UdpLookup(InetAddr dst, uint16_t dport);

  // ---- TCP ----
  void TcpInput(const Ipv4Header& ip, MBuf* payload);
  // Writes the header at the head of `segment`, with an MSS option when
  // `mss` is nonzero, checksums the segment and sends it from `ends`.
  void TcpEmit(const TcpEndpoints& ends, uint32_t seq, uint32_t ack,
               uint8_t flags, uint16_t window, MBuf* segment, uint16_t mss);
  // Sends what the window allows from pcb's send buffer; `force` emits an
  // otherwise-empty ACK.
  void TcpOutput(TcpPcb* pcb, bool force_ack);
  void TcpSendSegment(TcpPcb* pcb, uint32_t seq, uint8_t flags, const MBuf* data_src,
                      size_t data_off, size_t data_len, bool with_mss);
  void TcpSendRst(const Ipv4Header& ip, const TcpHeader& th, size_t payload_len);
  void TcpRexmtExpired(TcpPcb* pcb);
  void TcpSetState(TcpPcb* pcb, TcpState next);
  void TcpDrop(TcpPcb* pcb, Error err, bool announce = true);
  void TcpCloseDone(TcpPcb* pcb);  // reaches CLOSED: free or hand to socket
  void TcpProcessAck(TcpPcb* pcb, const TcpHeader& th);
  void TcpReassemble(TcpPcb* pcb, uint32_t seq, MBuf* data);
  void TcpAppendRcv(TcpPcb* pcb, MBuf* data);
  void TcpUpdateRtt(TcpPcb* pcb, int rtt);
  uint32_t TcpReceiveWindow(const TcpPcb* pcb) const;
  TcpConnRef TcpLookup(InetAddr src, uint16_t sport, InetAddr dst, uint16_t dport);
  uint16_t AllocEphemeralPort(bool tcp);
  uint32_t NextIss();

  // ---- TIME_WAIT records ----
  // Frees a detached TIME_WAIT pcb into a record, when the record can
  // answer for it; otherwise the pcb waits out 2MSL itself.
  void TcpRetireTimeWait(TcpPcb* pcb);
  // A checksummed segment for a record, carrying `data_len` payload bytes.
  void TcpTimeWaitInput(TcpTimeWait* tw, const Ipv4Header& ip,
                        const TcpHeader& th, size_t data_len);
  void TcpTimeWaitAck(const TcpTimeWait* tw);
  // 2MSL ended or the connection was reset: the 4-tuple and port go free.
  void TcpTimeWaitClose(TcpTimeWait* tw);

  // ---- PCB lookup indices ----
  // Every TCP demux goes through these.  A connection is indexed iff its
  // lport is nonzero; the 4-tuple map additionally requires a foreign
  // endpoint.
  struct TcpKey {
    uint32_t laddr;
    uint32_t faddr;
    uint32_t ports;  // lport << 16 | fport
    friend bool operator==(const TcpKey&, const TcpKey&) = default;
  };
  struct TcpKeyHash {
    size_t operator()(const TcpKey& k) const {
      uint64_t h = (static_cast<uint64_t>(k.laddr) << 32) | k.faddr;
      h ^= static_cast<uint64_t>(k.ports) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };
  static TcpKey MakeTcpKey(InetAddr laddr, uint16_t lport, InetAddr faddr,
                           uint16_t fport) {
    return TcpKey{laddr.value, faddr.value,
                  (static_cast<uint32_t>(lport) << 16) | fport};
  }
  void TcpIndexInsert(TcpPcb* pcb);
  void TcpIndexRemove(TcpConnRef conn);
  void UdpIndexInsert(UdpPcb* pcb);
  void UdpIndexRemove(UdpPcb* pcb);

  // Append a new pcb to its list and record its node there, so teardown
  // (TcpCloseDone, SoDetach) erases it without a search.
  TcpPcb* AddTcpPcb(std::unique_ptr<TcpPcb> pcb) {
    TcpPcb* raw = pcb.get();
    raw->self = tcp_pcbs_.insert(tcp_pcbs_.end(), std::move(pcb));
    return raw;
  }
  UdpPcb* AddUdpPcb(std::unique_ptr<UdpPcb> pcb) {
    UdpPcb* raw = pcb.get();
    raw->self = udp_pcbs_.insert(udp_pcbs_.end(), std::move(pcb));
    return raw;
  }

  // ---- connection timer plumbing ----
  // Timers are armed in whole slow ticks and fire on the matching 500 ms
  // boundary (WheelArmSlow); a delayed ACK fires on the next 200 ms one.
  void TcpBindWheelTimers(TcpPcb* pcb);
  void TcpCancelAllTimers(TcpPcb* pcb);
  void TcpSetDelayedAck(TcpPcb* pcb);
  void TcpPersistExpired(TcpPcb* pcb);
  // Slow (500 ms) / fast (200 ms) tick counts since stack construction.
  uint64_t CurSlowTick() const;
  uint64_t CurFastTick() const;
  void WheelArmSlow(WheelTimer* timer, int slow_ticks);

  // ---- readiness plumbing (src/net/selector.cc) ----
  uint32_t SoReadiness(BsdSocket* so);
  void SoNotify(BsdSocket* so);

  // ---- sockbuf helpers ----
  void SbAppend(SockBuf* sb, MBuf* chain);
  // Moves up to `len` bytes out of `sb` into `dst`; returns bytes moved.
  size_t SbCopyOut(SockBuf* sb, void* dst, size_t len);
  void SbDrop(SockBuf* sb, size_t len);
  void SbFlush(SockBuf* sb);

  // ---- socket-layer entry points (called by BsdSocket) ----
  Error SoBind(BsdSocket* so, const SockAddr& addr);
  Error SoConnect(BsdSocket* so, const SockAddr& addr);
  Error SoListen(BsdSocket* so, int backlog);
  Error SoAccept(BsdSocket* so, SockAddr* out_peer, TcpPcb** out_pcb);
  // Takes the oldest established child off the listener's accept queue.
  TcpPcb* PopAccepted(TcpPcb* listener, SockAddr* out_peer);
  // Blocks until the stream has send-buffer space and returns it, or
  // returns why nothing more can be sent.
  Error SoWaitSendSpace(BsdSocket* so, TcpPcb* pcb, size_t* space);
  Error SoSend(BsdSocket* so, const void* buf, size_t len, size_t* out_actual);
  Error SoSendBufIo(BsdSocket* so, BufIoVec* src, off_t64 offset, size_t amount,
                    size_t* out_actual);
  Error SoRecv(BsdSocket* so, void* buf, size_t len, size_t* out_actual);
  Error SoSendTo(BsdSocket* so, const void* buf, size_t len, const SockAddr& to,
                 size_t* out_actual);
  Error SoRecvFrom(BsdSocket* so, void* buf, size_t len, SockAddr* out_from,
                   size_t* out_actual);
  Error SoShutdown(BsdSocket* so, SockShutdown how);
  Error SoAcceptBatch(BsdSocket* so, SockAddr* out_peers, Socket** out_sockets,
                      size_t capacity, size_t* out_count);
  void SoDetach(BsdSocket* so);  // socket released: orderly close, disown pcb
  void SoShutdownPcb(TcpPcb* pcb);  // FIN-queue a pcb directly

  void ScheduleWheelTick();

  SleepEnv* sleep_env_;
  SimClock* clock_;
  trace::TraceEnv* trace_;
  MbufPool pool_;
  BsdSleepWakeup sleep_wakeup_;
  Counters counters_;
  trace::CounterBlock trace_binding_;

  std::vector<Iface> ifaces_;
  std::map<uint32_t, ArpEntry> arp_;
  std::map<FragKey, FragQueue> frags_;
  uint16_t ip_ident_ = 1;
  uint32_t iss_counter_ = 0x1000;
  uint16_t next_ephemeral_ = 49152;
  uint16_t icmp_ident_ = 1;
  std::list<PendingEcho> pending_echoes_;

  SimTime epoch_ = 0;  // clock value at construction; tick counts are relative
  // Declared before the PCB lists: members destroy in reverse order, so the
  // pcbs' intrusive WheelTimers self-cancel against a live wheel.
  TimerWheel wheel_;

  TcpPcbList tcp_pcbs_;
  UdpPcbList udp_pcbs_;

  // Demux indices (see "PCB lookup indices" above).  They own the TIME_WAIT
  // records: a record lives exactly as long as its tcp_conn_ entry.
  std::unordered_map<TcpKey, TcpConnRef, TcpKeyHash> tcp_conn_;
  std::unordered_map<uint16_t, std::vector<TcpConnRef>> tcp_by_lport_;
  // Listeners only, by port: keeps the SYN path O(1) instead of walking a
  // lport bucket that also holds every accepted child of that listener.
  std::unordered_map<uint16_t, std::vector<TcpPcb*>> tcp_listeners_;
  std::unordered_map<uint16_t, std::vector<UdpPcb*>> udp_by_lport_;

  // Live selectors (weak; each unregisters itself in its destructor).
  std::vector<BsdSelector*> selectors_;

  // Connections touched while an RX batch is open, with the strongest
  // force_ack seen; flushed by EndRxBatch.  Every entry is live: input
  // inside the batch may free a pcb or a record, and TcpCloseDone and
  // TcpTimeWaitClose scrub it from here.  A record's pass sends nothing but
  // is counted, as the pcb's pass it stands for was.
  void RxBatchDefer(TcpConnRef conn, bool force_ack);
  struct RxBatchEntry {
    TcpConnRef conn;
    bool force_ack;
  };
  bool rx_batch_active_ = false;
  std::vector<RxBatchEntry> rx_batch_;
  std::vector<RxBatchEntry> rx_batch_spare_;  // what EndRxBatch walks

  // RX-charge helper shared by TCP and UDP delivery: resolves the owner
  // socket, consults accounting_, and books into the pcb fields.  Returns
  // false when the delivery must be shed.
  bool AcctChargeRx(BsdSocket* owner, size_t* rx_charged, void** tag,
                    size_t bytes);
  // Credits up to `bytes` of the pcb's outstanding RX charge.
  void AcctCreditRx(size_t* rx_charged, void* tag, size_t bytes);

  SoAccounting* accounting_ = nullptr;
  size_t default_sock_buf_ = kDefaultBufSize;
  fault::FaultEnv* fault_ = nullptr;  // null: nothing armed
  SimClock::EventId wheel_timer_ = SimClock::kInvalidEvent;
  bool shutting_down_ = false;
};

// ---------------------------------------------------------------------------
// The COM socket object
// ---------------------------------------------------------------------------

class BsdSocket final
    : public ComObject<BsdSocket, Socket, SocketExt, SocketZeroCopy> {
 public:
  BsdSocket(NetStack* stack, SockType type);
  // Adopts an already-connected pcb (batch accept): no fresh pcb is built.
  BsdSocket(NetStack* stack, TcpPcb* adopt);

  // SocketExt is the optional capability interface (§4.4.2): only clients
  // that ask for non-blocking / batched operation ever see it.  Zero-copy
  // transmit is a stream capability; datagram sockets don't grant it.
  bool Grants(const Guid& iid) const {
    return iid != SocketZeroCopy::kIid || type_ == SockType::kStream;
  }
  void OnLastRelease();

  // Socket
  Error Bind(const SockAddr& addr) override;
  Error Connect(const SockAddr& addr) override;
  Error Listen(int backlog) override;
  Error Accept(SockAddr* out_peer, Socket** out_socket) override;
  Error Send(const void* buf, size_t amount, size_t* out_actual) override;
  Error Recv(void* buf, size_t amount, size_t* out_actual) override;
  Error SendTo(const void* buf, size_t amount, const SockAddr& to,
               size_t* out_actual) override;
  Error RecvFrom(void* buf, size_t amount, SockAddr* out_from,
                 size_t* out_actual) override;
  Error Shutdown(SockShutdown how) override;
  Error GetSockName(SockAddr* out_addr) override;
  Error GetPeerName(SockAddr* out_addr) override;

  // SocketExt
  Error SetNonBlocking(bool on) override;
  Error AcceptBatch(SockAddr* out_peers, Socket** out_sockets, size_t capacity,
                    size_t* out_count) override;

  // SocketZeroCopy
  Error SendBufIo(BufIoVec* src, off_t64 offset, size_t amount,
                  size_t* out_actual) override;

  SockType type() const { return type_; }
  TcpPcb* tcp() { return tcp_; }
  UdpPcb* udp() { return udp_; }
  bool nonblocking() const { return nonblocking_; }

 private:
  friend class NetStack;
  friend class BsdSelector;
  friend class RefCounted<BsdSocket>;
  ~BsdSocket();

  NetStack* stack_;
  SockType type_;
  TcpPcb* tcp_ = nullptr;
  UdpPcb* udp_ = nullptr;
  bool nonblocking_ = false;
  BsdSelector* selector_ = nullptr;  // the selector this socket is added to
};

}  // namespace oskit::net

#endif  // OSKIT_SRC_NET_STACK_H_
