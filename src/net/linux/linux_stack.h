// The Linux-idiom baseline TCP/IP stack (the "Linux 2.0.29" rows of
// Tables 1 and 2).
//
// Where the FreeBSD-idiom stack lives on chained mbufs, this engine is
// contiguous-skbuff end to end, the way Linux 2.0 was:
//
//  * sendmsg copies user bytes ONCE into MSS-sized skbuffs with headroom
//    already reserved for TCP/IP/Ethernet headers (tcp_do_sendmsg style);
//  * headers are skb_push'ed into the same buffer — no separate header
//    buffer, no chain;
//  * the queued skbuff is retained for retransmission and a "clone" (a
//    fake skbuff sharing the data) is handed to the driver, which gives the
//    hardware one contiguous buffer — so this stack never needs the
//    driver's hard_start_xmit_vec gather entry point: its frames are
//    already zero-copy by contiguity, as Table 1's Linux row shows;
//  * receive parses in place with skb_pull and queues the same skbuff on
//    the socket.
//
// It speaks real TCP/IP on the wire and interoperates with the BSD-idiom
// stack (the cross-stack tests prove it).  As a baseline it is deliberately
// simpler than the BSD engine: no congestion window, no out-of-order
// reassembly (retransmission recovers), no IP fragmentation.  Those
// simplifications are documented in DESIGN.md and do not affect the
// loss-free benchmark wire.

#ifndef OSKIT_SRC_NET_LINUX_LINUX_STACK_H_
#define OSKIT_SRC_NET_LINUX_LINUX_STACK_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>

#include "src/com/socket.h"
#include "src/dev/linux/linux_ether.h"
#include "src/machine/clock.h"
#include "src/net/wire_formats.h"
#include "src/sleep/sleep.h"
#include "src/trace/trace.h"

namespace oskit::net::linuxstack {

using linuxdev::linux_device;
using linuxdev::sk_buff;

class LinuxNetStack;

enum class LTcpState {
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

struct LTcpPcb {
  LTcpState state = LTcpState::kClosed;
  InetAddr laddr;
  uint16_t lport = 0;
  InetAddr faddr;
  uint16_t fport = 0;

  uint32_t iss = 0;
  uint32_t snd_una = 0;
  uint32_t snd_nxt = 0;
  uint32_t snd_wnd = 0;
  uint32_t irs = 0;
  uint32_t rcv_nxt = 0;
  uint16_t mss = 1460;

  // Send queue: MSS-sized skbuffs awaiting ACK (data starts at the TCP
  // payload; headers are pushed on (re)transmission into the headroom).
  struct TxSeg {
    sk_buff* skb;      // owns the payload bytes
    uint32_t seq;      // first payload byte's sequence number
    uint32_t len;      // payload length
    bool fin = false;  // segment carries FIN after its data
    bool transmitted = false;
  };
  std::list<TxSeg> txq;
  size_t txq_bytes = 0;
  size_t snd_hiwat = 32 * 1024;

  // Receive queue: skbuffs already pulled to their payload.
  std::list<sk_buff*> rxq;
  size_t rxq_bytes = 0;
  size_t rcv_hiwat = 32 * 1024;
  size_t rx_consumed_in_head = 0;

  int rexmt_ticks = 0;   // 500 ms ticks until retransmit; 0 = off
  int time_wait_ticks = 0;
  int conn_ticks = 0;

  bool fin_queued = false;
  bool fin_acked = false;
  bool peer_fin_seen = false;
  Error so_error = Error::kOk;

  std::list<LTcpPcb*> accept_queue;
  LTcpPcb* listener = nullptr;
  int backlog = 0;
  bool detached = false;
};

class LinuxNetStack {
 public:
  // Registered with the trace environment's registry under "linux.*".
  struct Counters {
    trace::Counter ip_in;
    trace::Counter ip_out;
    trace::Counter tcp_in;
    trace::Counter tcp_out;
    trace::Counter tcp_retransmits;
    trace::Counter drops_ooo;
    trace::Counter arp_in;
  };

  // Binds directly to the Linux-idiom driver core: stack and driver share
  // skbuffs natively, as in the real Linux kernel.  `trace` is the
  // observability environment to report into.
  LinuxNetStack(SleepEnv* sleep_env, SimClock* clock, linux_device* dev,
                trace::TraceEnv* trace);
  ~LinuxNetStack();

  Error IfConfig(InetAddr addr, InetAddr netmask);

  ComPtr<SocketFactory> CreateSocketFactory();

  // A fresh stream socket (born with one reference).
  Socket* MakeSocket();

  const Counters& counters() const { return counters_; }

  // Driver upcall (installed as netif_rx).
  void NetifRx(sk_buff* skb);

 private:

  // Header room reserved in every transmit skbuff.
  static constexpr size_t kHeaderRoom =
      kEtherHeaderSize + kIpHeaderSize + kTcpHeaderSize + 8;

  void ArpInput(sk_buff* skb);
  void IpInput(sk_buff* skb);
  void TcpInput(const Ipv4Header& ip, sk_buff* skb);

  // Transmits `skb` whose data starts at the TCP header; prepends IP and
  // Ethernet headers in the headroom and resolves ARP.
  void IpTcpOutput(InetAddr src, InetAddr dst, sk_buff* skb);
  void SendControl(LTcpPcb* pcb, uint8_t flags, bool with_mss);
  void TransmitSeg(LTcpPcb* pcb, LTcpPcb::TxSeg& seg);
  void TcpTrySend(LTcpPcb* pcb);
  void SlowTick();

  void ResolveAndSend(InetAddr next_hop, sk_buff* skb);

  LTcpPcb* Lookup(InetAddr src, uint16_t sport, InetAddr dst, uint16_t dport);
  uint16_t AllocPort();
  void Wake(void* chan) { sleep_.Wakeup(chan); }
  void Block(void* chan) { sleep_.Sleep(chan); }
  void PcbFreeIfDone(LTcpPcb* pcb);
  void FlushPcb(LTcpPcb* pcb);

 public:
  // Socket-layer operations (used by the COM socket wrapper).
  Error SoBind(LTcpPcb* pcb, const SockAddr& addr);
  Error SoConnect(LTcpPcb* pcb, const SockAddr& addr);
  Error SoListen(LTcpPcb* pcb, int backlog);
  Error SoAccept(LTcpPcb* pcb, SockAddr* out_peer, LTcpPcb** out_child);
  Error SoSend(LTcpPcb* pcb, const void* buf, size_t len, size_t* out_actual);
  Error SoRecv(LTcpPcb* pcb, void* buf, size_t len, size_t* out_actual);
  Error SoShutdown(LTcpPcb* pcb);
  void SoDetach(LTcpPcb* pcb);

 private:

  // BSD-style sleep/wakeup reused as a generic channel wait (the mechanism
  // is private to each stack instance).
  class ChannelWait {
   public:
    explicit ChannelWait(SleepEnv* env) : env_(env) {}
    void Sleep(const void* chan);
    void Wakeup(const void* chan);

   private:
    struct Waiter {
      SleepRecord record;
      const void* chan;
      Waiter* next;
      explicit Waiter(SleepEnv* env) : record(env), chan(nullptr), next(nullptr) {}
    };
    SleepEnv* env_;
    Waiter* head_ = nullptr;
  };

  SleepEnv* sleep_env_;
  SimClock* clock_;
  linux_device* dev_;
  InetAddr addr_;
  InetAddr netmask_;
  bool configured_ = false;

  struct ArpEntry {
    EtherAddr mac;
    bool resolved = false;
    sk_buff* pending = nullptr;
  };
  std::map<uint32_t, ArpEntry> arp_;

  std::list<std::unique_ptr<LTcpPcb>> pcbs_;
  uint16_t next_port_ = 40000;
  uint32_t iss_counter_ = 0x8000;
  uint16_t ip_ident_ = 1;

  ChannelWait sleep_;
  trace::TraceEnv* trace_;
  Counters counters_;
  trace::CounterBlock trace_binding_;
  SimClock::EventId tick_event_ = SimClock::kInvalidEvent;
  bool shutting_down_ = false;
};

}  // namespace oskit::net::linuxstack

#endif  // OSKIT_SRC_NET_LINUX_LINUX_STACK_H_
