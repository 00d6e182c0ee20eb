// Scale-out networking: the learning virtual switch, the epoll-style
// NetSelector readiness interface, SYN-queue overflow accounting, ephemeral
// port exhaustion, the kmon netstat command, and the golden test holding the
// O(1) TCP internals (4-tuple hash + timer wheel) to the wire behaviour
// recorded from the retired linear BSD baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/kern/kmon.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

namespace oskit::testbed {
namespace {

constexpr uint16_t kPort = 6100;

// ---------------------------------------------------------------------------
// Virtual switch
// ---------------------------------------------------------------------------

TEST(SwitchTest, LearnsMacsAndUnicastsAfterFlood) {
  VirtualSwitch::Config sw;
  World world(sw);
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);
  Host& c = world.AddHost("c", NetConfig::kNativeBsd);

  EXPECT_EQ(3u, world.fabric().port_count());
  // Port index is attach order, which is AddHost order.
  EXPECT_EQ(0, world.fabric().PortOf(a.machine->nics()[0].get()));
  EXPECT_EQ(1, world.fabric().PortOf(b.machine->nics()[0].get()));
  EXPECT_EQ(2, world.fabric().PortOf(c.machine->nics()[0].get()));

  world.sim().Spawn("pings", [&] {
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
    ASSERT_EQ(Error::kOk, a.stack->Ping(c.addr, kNsPerSec, &rtt));
    ASSERT_EQ(Error::kOk, b.stack->Ping(c.addr, kNsPerSec, &rtt));
  });
  world.RunToCompletion();

  VirtualSwitch* vs = &world.fabric();
  // ARP requests are broadcast -> flooded; everything after learning is
  // unicast to the learned port only.
  EXPECT_GT(vs->frames_flooded(), 0u);
  EXPECT_GT(vs->frames_unicast(), 0u);
  EXPECT_EQ(3u, vs->macs_learned());
  EXPECT_EQ(0u, vs->mac_moves());
  EXPECT_GT(vs->bytes_carried(), 0u);
}

TEST(SwitchTest, PerPortLossIsolatesOneUplinkAndHeals) {
  VirtualSwitch::Config sw;
  World world(sw);
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);
  Host& c = world.AddHost("c", NetConfig::kNativeBsd);
  (void)b;

  // Degrade only host c's uplink: frames egressing port 2 all drop.  The
  // rest of the fabric must be unaffected.
  VirtualSwitch::PortConfig broken;
  broken.loss_percent = 100;
  world.fabric().SetPortConfig(2, broken);

  world.sim().Spawn("pings", [&] {
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
    EXPECT_FALSE(Ok(a.stack->Ping(c.addr, kNsPerSec, &rtt)));
    // Heal the port; the next ping re-runs ARP and succeeds.
    world.fabric().SetPortConfig(2, VirtualSwitch::PortConfig{});
    EXPECT_EQ(Error::kOk, a.stack->Ping(c.addr, 10 * kNsPerSec, &rtt));
  });
  world.RunToCompletion();
  EXPECT_GT(world.fabric().frames_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// NetSelector semantics
// ---------------------------------------------------------------------------

TEST(SelectorTest, EdgeVersusLevelDeliverySemantics) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  world.sim().Spawn("driver", [&] {
    ComPtr<Socket> rx = a.MakeSocket(SockType::kDgram);
    ASSERT_EQ(Error::kOk, rx->Bind(SockAddr{kInetAny, 7000}));
    ComPtr<NetSelector> sel = a.stack->CreateSelector();

    // Edge-triggered readable registration on an empty socket: nothing to
    // harvest yet.
    ASSERT_EQ(Error::kOk, sel->Add(rx.get(), kNetReadable, /*edge=*/true,
                                   /*token=*/rx.get()));
    NetReadyEvent events[4];
    size_t n = 99;
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/false, &n));
    EXPECT_EQ(0u, n);

    // A datagram lands; the blocking Wait wakes with exactly one event.
    ComPtr<Socket> tx = b.MakeSocket(SockType::kDgram);
    size_t sent = 0;
    ASSERT_EQ(Error::kOk, tx->SendTo("ping", 4, SockAddr{a.addr, 7000}, &sent));
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/true, &n));
    ASSERT_EQ(1u, n);
    EXPECT_EQ(rx.get(), events[0].socket);
    EXPECT_EQ(rx.get(), events[0].token);
    EXPECT_EQ(kNetReadable, events[0].events & kNetReadable);

    // Edge semantics: the data is still unread, but no NEW readiness edge
    // occurred, so a second harvest is empty.
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/false, &n));
    EXPECT_EQ(0u, n);

    // Switch the registration to level-triggered: still-unread data is
    // reported again on every harvest until drained.
    ASSERT_EQ(Error::kOk, sel->Modify(rx.get(), kNetReadable, /*edge=*/false));
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/false, &n));
    ASSERT_EQ(1u, n);
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/false, &n));
    ASSERT_EQ(1u, n);

    char buf[16];
    size_t got = 0;
    ASSERT_EQ(Error::kOk, rx->Recv(buf, sizeof(buf), &got));
    EXPECT_EQ(4u, got);
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/false, &n));
    EXPECT_EQ(0u, n);
  });
  world.RunToCompletion();
  EXPECT_GT(a.trace.registry.Value("net.select.notifies"), 0u);
  EXPECT_GT(a.trace.registry.Value("net.select.harvested"), 0u);
  EXPECT_GT(a.trace.registry.Value("net.select.wakeups"), 0u);
}

TEST(SelectorTest, RegistrationLifecycleAndErrors) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  ComPtr<NetSelector> sel = a.stack->CreateSelector();
  ComPtr<NetSelector> sel2 = a.stack->CreateSelector();
  ComPtr<Socket> sock = a.MakeSocket(SockType::kDgram);
  ComPtr<Socket> foreign = b.MakeSocket(SockType::kDgram);

  EXPECT_EQ(Error::kInval, sel->Add(nullptr, kNetReadable, false, nullptr));
  // A socket from another host's stack is rejected.
  EXPECT_EQ(Error::kInval, sel->Add(foreign.get(), kNetReadable, false, nullptr));
  // Modify/Remove of a never-added socket fail cleanly.
  EXPECT_EQ(Error::kInval, sel->Modify(sock.get(), kNetReadable, false));
  EXPECT_EQ(Error::kInval, sel->Remove(sock.get()));

  ASSERT_EQ(Error::kOk, sel->Add(sock.get(), kNetWritable, false, nullptr));
  // One selector per socket: a second Add reports busy, whether it comes
  // from the same selector or a different one.
  EXPECT_EQ(Error::kBusy, sel->Add(sock.get(), kNetReadable, false, nullptr));
  EXPECT_EQ(Error::kBusy, sel2->Add(sock.get(), kNetReadable, false, nullptr));
  EXPECT_EQ(1u, a.trace.registry.Value("net.select.registered"));

  // Remove, then the other selector may claim it.
  ASSERT_EQ(Error::kOk, sel->Remove(sock.get()));
  ASSERT_EQ(Error::kOk, sel2->Add(sock.get(), kNetWritable, false, nullptr));
  EXPECT_EQ(1u, a.trace.registry.Value("net.select.registered"));

  // A registered socket that dies unregisters itself (weak registration).
  sock.Reset();
  EXPECT_EQ(0u, a.trace.registry.Value("net.select.registered"));
  NetReadyEvent events[2];
  size_t n = 99;
  ASSERT_EQ(Error::kOk, sel2->Wait(events, 2, /*block=*/false, &n));
  EXPECT_EQ(0u, n);
  EXPECT_GT(a.trace.registry.Value("net.select.removes"), 0u);

  // A dying selector detaches its sockets, so they can be re-registered.
  ComPtr<Socket> sock2 = a.MakeSocket(SockType::kDgram);
  ASSERT_EQ(Error::kOk, sel->Add(sock2.get(), kNetWritable, false, nullptr));
  sel.Reset();
  EXPECT_EQ(0u, a.trace.registry.Value("net.select.registered"));
  ASSERT_EQ(Error::kOk, sel2->Add(sock2.get(), kNetWritable, false, nullptr));
}

// A Socket that is not one of this stack's own (here a security wrapper
// around one) is refused by a raw selector with kInval — checked, never
// downcast.
TEST(SelectorTest, ForeignSocketObjectIsRejected) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  secure::PrincipalRegistry principals(&a.trace);
  secure::NetGuard guard(&principals);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), principals.Create("tenant"), &guard);
  ComPtr<Socket> wrapped;
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kDgram,
                                        wrapped.Receive()));

  ComPtr<NetSelector> sel = a.stack->CreateSelector();
  EXPECT_EQ(Error::kInval,
            sel->Add(wrapped.get(), kNetReadable, false, nullptr));
  EXPECT_EQ(Error::kInval, sel->Modify(wrapped.get(), kNetReadable, false));
  EXPECT_EQ(Error::kInval, sel->Remove(wrapped.get()));
  EXPECT_EQ(0u, a.trace.registry.Value("net.select.registered"));
}

TEST(SelectorTest, NonblockingConnectCompletesThroughSelector) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[16];
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &n));
    ASSERT_EQ(Error::kOk, conn->Send(buf, n, &n));
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });
  world.sim().Spawn("client", [&] {
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    void* extp = nullptr;
    ASSERT_EQ(Error::kOk, conn->Query(SocketExt::kIid, &extp));
    auto* ext = static_cast<SocketExt*>(extp);
    ASSERT_EQ(Error::kOk, ext->SetNonBlocking(true));

    // The handshake is in flight; completion is observed as writability.
    ASSERT_EQ(Error::kWouldBlock, conn->Connect(SockAddr{a.addr, kPort}));
    SockAddr peer;
    EXPECT_EQ(Error::kNotConn, conn->GetPeerName(&peer));

    ComPtr<NetSelector> sel = b.stack->CreateSelector();
    ASSERT_EQ(Error::kOk,
              sel->Add(conn.get(), kNetWritable, /*edge=*/true, nullptr));
    NetReadyEvent events[2];
    size_t n = 0;
    ASSERT_EQ(Error::kOk, sel->Wait(events, 2, /*block=*/true, &n));
    ASSERT_EQ(1u, n);
    EXPECT_EQ(kNetWritable, events[0].events & kNetWritable);
    ASSERT_EQ(Error::kOk, conn->GetPeerName(&peer));
    EXPECT_EQ(a.addr, peer.addr);

    // Back to blocking mode for the payload exchange.
    ASSERT_EQ(Error::kOk, ext->SetNonBlocking(false));
    ext->Release();
    ASSERT_EQ(Error::kOk, sel->Remove(conn.get()));
    size_t sent = 0;
    ASSERT_EQ(Error::kOk, conn->Send("hello", 5, &sent));
    char buf[16];
    std::string got;
    while (Ok(conn->Recv(buf, sizeof(buf), &sent)) && sent > 0) {
      got.append(buf, sent);
    }
    EXPECT_EQ("hello", got);
  });
  world.RunToCompletion();
}

TEST(SelectorTest, EchoServerServicesSixtyConnectionsOverSwitch) {
  // A miniature of the C10k flagship: one selector-driven server fiber
  // services every connection from three loadgen hosts — no
  // fiber-per-connection anywhere on the server.
  constexpr int kClientHosts = 3;
  constexpr int kPerHost = 20;
  constexpr int kTotal = kClientHosts * kPerHost;

  VirtualSwitch::Config sw;
  World world(sw);
  Host& server = world.AddHost("server", NetConfig::kNativeBsd);
  for (int h = 0; h < kClientHosts; ++h) {
    world.AddHost("load" + std::to_string(h), NetConfig::kNativeBsd);
  }

  bool listening = false;
  bool host_ready[kClientHosts] = {};
  int echoed_ok = 0;

  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = server.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(64));
    ComPtr<NetSelector> sel = server.stack->CreateSelector();
    ASSERT_EQ(Error::kOk, sel->Add(listener.get(), kNetReadable,
                                   /*edge=*/false, /*token=*/nullptr));
    listening = true;

    int closed = 0;
    NetReadyEvent events[32];
    while (closed < kTotal) {
      size_t n = 0;
      ASSERT_EQ(Error::kOk, sel->Wait(events, 32, /*block=*/true, &n));
      for (size_t i = 0; i < n; ++i) {
        if (events[i].socket == listener.get()) {
          SockAddr peers[16];
          Socket* children[16];
          size_t accepted = 0;
          void* extp = nullptr;
          ASSERT_EQ(Error::kOk, listener->Query(SocketExt::kIid, &extp));
          auto* lext = static_cast<SocketExt*>(extp);
          ASSERT_EQ(Error::kOk,
                    lext->AcceptBatch(peers, children, 16, &accepted));
          lext->Release();
          for (size_t k = 0; k < accepted; ++k) {
            ASSERT_EQ(Error::kOk,
                      children[k]->Query(SocketExt::kIid, &extp));
            auto* ext = static_cast<SocketExt*>(extp);
            ASSERT_EQ(Error::kOk, ext->SetNonBlocking(true));
            ext->Release();
            ASSERT_EQ(Error::kOk, sel->Add(children[k], kNetReadable,
                                           /*edge=*/false, children[k]));
          }
          continue;
        }
        // Connection readable: drain and echo; EOF retires it.
        Socket* conn = events[i].socket;
        char buf[256];
        for (;;) {
          size_t got = 0;
          Error err = conn->Recv(buf, sizeof(buf), &got);
          if (err == Error::kWouldBlock) {
            break;
          }
          if (!Ok(err) || got == 0) {
            ASSERT_EQ(Error::kOk, sel->Remove(conn));
            conn->Release();
            ++closed;
            break;
          }
          size_t sent = 0;
          ASSERT_EQ(Error::kOk, conn->Send(buf, got, &sent));
          ASSERT_EQ(got, sent);
        }
      }
    }
    ASSERT_EQ(Error::kOk, sel->Remove(listener.get()));
    // Linger past the clients' TIME_WAIT expiry (8 slow ticks = 4 s) so the
    // wheel-driven 2MSL timers actually fire inside the simulation.
    world.sim().SleepFor(5 * kNsPerSec);
  });

  for (int h = 0; h < kClientHosts; ++h) {
    Host& lg = world.host(1 + h);
    // Warm the ARP cache before the storm: the one-deep ARP pending queue
    // would otherwise swallow most of a simultaneous SYN burst.
    world.sim().Spawn("prewarm", [&, h] {
      world.sim().WaitUntil([&] { return listening; });
      SimTime rtt = 0;
      ASSERT_EQ(Error::kOk, lg.stack->Ping(server.addr, kNsPerSec, &rtt));
      host_ready[h] = true;
    });
    for (int c = 0; c < kPerHost; ++c) {
      world.sim().Spawn("client", [&, h, c] {
        world.sim().WaitUntil([&] { return host_ready[h]; });
        ComPtr<Socket> conn = lg.MakeSocket(SockType::kStream);
        ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{server.addr, kPort}));
        char msg[16];
        snprintf(msg, sizeof(msg), "h%02dc%04d", h, c);
        size_t n = 0;
        ASSERT_EQ(Error::kOk, conn->Send(msg, sizeof(msg), &n));
        std::string got;
        char buf[32];
        while (got.size() < sizeof(msg) &&
               Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
          got.append(buf, n);
        }
        EXPECT_EQ(std::string(msg, sizeof(msg)), got);
        if (got == std::string(msg, sizeof(msg))) {
          ++echoed_ok;
        }
      });
    }
  }
  world.RunToCompletion();
  EXPECT_EQ(kTotal, echoed_ok);

  // The scalable internals really carried the load: demux by hash, timers
  // through the wheel, one registration per connection plus the listener.
  const auto& sc = server.stack->counters();
  EXPECT_GT(sc.pcb_hash_hits.value(), 0u);
  EXPECT_EQ(static_cast<uint64_t>(kTotal) + 1, sc.select_adds.value());
  EXPECT_EQ(0u, sc.select_registered.value());
  EXPECT_GT(server.stack->timer_wheel().now(), 0u);  // ticking in lockstep
  // The clients all active-closed, so their TIME_WAIT timers fired through
  // their stacks' wheels during the server's linger.
  uint64_t client_fired = 0;
  for (int h = 0; h < kClientHosts; ++h) {
    client_fired += world.host(1 + h).stack->timer_wheel().fired();
  }
  EXPECT_GT(client_fired, 0u);
  EXPECT_GE(world.fabric().port_count(), 4u);
  EXPECT_GT(world.fabric().frames_unicast(), 0u);
}

// ---------------------------------------------------------------------------
// Listen-queue overflow accounting
// ---------------------------------------------------------------------------

TEST(TcpListenTest, SynOverflowIsCountedAndServiceRecovers) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  constexpr int kClients = 6;
  int served = 0;
  bool listening = false;
  world.sim().Spawn("server", [&] {
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));  // capacity 2 in queue terms
    listening = true;
    for (int i = 0; i < kClients; ++i) {
      SockAddr peer;
      ComPtr<Socket> conn;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
      ++served;
      world.sim().SleepFor(200 * kNsPerMs);  // let the queue back up
    }
  });
  for (int c = 0; c < kClients; ++c) {
    world.sim().Spawn("client", [&] {
      world.sim().WaitUntil([&] { return listening; });
      ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
    });
  }
  world.RunToCompletion();
  EXPECT_EQ(kClients, served);
  // Six simultaneous SYNs against queue capacity 2: the overflow was real,
  // was counted on the listener's stack, and the dropped SYNs' retransmits
  // eventually got everyone served.
  EXPECT_GT(a.stack->counters().tcp_listen_overflows.value(), 0u);
  EXPECT_EQ(a.trace.registry.Value("net.tcp.listen_overflows"),
            a.stack->counters().tcp_listen_overflows.value());
  EXPECT_GT(b.stack->counters().tcp_retransmits.value(), 0u);
}

// ---------------------------------------------------------------------------
// Ephemeral-port exhaustion
// ---------------------------------------------------------------------------

TEST(TcpPortTest, EphemeralExhaustionSurfacesAndRecovers) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  // Occupy the entire ephemeral range [49152, 65535] with bound sockets.
  std::vector<ComPtr<Socket>> squatters;
  squatters.reserve(16384);
  for (uint32_t port = 49152; port <= 65535; ++port) {
    ComPtr<Socket> s = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, s->Bind(SockAddr{kInetAny, static_cast<uint16_t>(port)}));
    squatters.push_back(std::move(s));
  }

  // With no port left, connect fails with EADDRNOTAVAIL (distinguishable
  // from mbuf kNoBufs and quota kQuotaExceeded) before any packet is built,
  // and the exhaustion is counted.
  ComPtr<Socket> conn = a.MakeSocket(SockType::kStream);
  EXPECT_EQ(Error::kAddrNotAvail, conn->Connect(SockAddr{HostAddr(1), kPort}));
  EXPECT_EQ(1u, a.stack->counters().port_exhausted.value());
  EXPECT_EQ(1u, a.trace.registry.Value("net.port.exhausted"));

  // Free one port; the allocator's rotating probe finds it and the stack
  // recovers without intervention.  The probe connects non-blocking so the
  // allocation outcome is visible without waiting on the (nonexistent)
  // peer's handshake.
  squatters[123].Reset();
  ComPtr<Socket> probe = a.MakeSocket(SockType::kStream);
  void* extp = nullptr;
  ASSERT_EQ(Error::kOk, probe->Query(SocketExt::kIid, &extp));
  auto* ext = static_cast<SocketExt*>(extp);
  ASSERT_EQ(Error::kOk, ext->SetNonBlocking(true));
  ext->Release();
  EXPECT_EQ(Error::kWouldBlock, probe->Connect(SockAddr{HostAddr(1), kPort}));
  SockAddr self;
  ASSERT_EQ(Error::kOk, probe->GetSockName(&self));
  EXPECT_EQ(49152u + 123u, self.port);
  EXPECT_EQ(1u, a.stack->counters().port_exhausted.value());
}

// ---------------------------------------------------------------------------
// Netstat helpers
// ---------------------------------------------------------------------------

std::string NetstatText(net::NetStack& stack) {
  std::string text;
  stack.Netstat([&](const char* line) {
    text += line;
    text += '\n';
  });
  return text;
}

// The tcp_pcbs= / udp_pcbs= counts from Netstat's header line.
std::pair<size_t, size_t> NetstatPcbs(net::NetStack& stack) {
  std::string text = NetstatText(stack);
  size_t tcp = 0;
  size_t udp = 0;
  size_t at = text.find("tcp_pcbs=");
  EXPECT_NE(std::string::npos, at);
  EXPECT_EQ(2, std::sscanf(text.c_str() + at, "tcp_pcbs=%zu udp_pcbs=%zu",
                           &tcp, &udp));
  return {tcp, udp};
}

// ---------------------------------------------------------------------------
// TCP timers: golden wire behaviour
// ---------------------------------------------------------------------------

// One transfer host(1) -> host(0) of patterned bytes, shaped so that each
// TCP timer really fires: heavy loss drives retransmit timeouts (and, once,
// the connect timeout), a slow reader shuts the window so persist probes go
// out (and its nudge draws a delayed ACK), and a world held open after the
// close lets the 2MSL timer expire.
enum class TimerShape {
  kBulk,        // 8 KB writes as fast as the window allows
  kSlowReader,  // reader stalls 5 s, then drains 8 KB per 5 ms
  kHold,        // world stays up until the TIME_WAIT pcb is reaped
};

struct TimerScenario {
  uint32_t loss_percent;
  uint64_t seed;
  size_t total;
  TimerShape shape;
};

struct TimerRun {
  std::string stream;
  uint64_t tcp_out = 0;          // both hosts
  uint64_t tcp_retransmits = 0;  // both hosts
  uint64_t delayed_acks = 0;     // both hosts
  uint64_t frames_sent = 0;      // wire
  uint64_t bytes_carried = 0;    // wire
  SimTime now = 0;               // simulated time when the world drained
  int connect_timeouts = 0;      // Connect calls the 30 s timer gave up on
  int persist_probes = 0;        // sender segments sent into a zero window
  uint64_t timeline = 0;         // when each end advanced (see timer-watch)
  bool time_wait_seen = false;   // the active closer sat in TIME_WAIT...
  bool time_wait_reaped = false; // ...and its pcb was freed at expiry
};

uint8_t TimerPattern(size_t i) { return static_cast<uint8_t>(i * 37 + 11); }

TimerRun RunTimerScenario(const TimerScenario& sc) {
  EthernetWire::Config wc;
  wc.loss_percent = sc.loss_percent;
  wc.duplicate_percent = sc.loss_percent != 0 ? 1 : 0;
  wc.reorder_jitter_ns = sc.loss_percent != 0 ? 200 * kNsPerUs : 0;
  wc.fault_seed = sc.seed;
  World world(wc);
  Host& rx = world.AddHost("rx", NetConfig::kNativeBsd);
  Host& tx = world.AddHost("tx", NetConfig::kNativeBsd);

  TimerRun run;
  run.stream.reserve(sc.total);
  bool slow_reader = sc.shape == TimerShape::kSlowReader;
  int closed = 0;
  const net::TcpPcb* ends[2] = {nullptr, nullptr};  // receiver, sender
  world.sim().Spawn("timer-server", [&] {
    {
      ComPtr<Socket> listener = rx.MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
      ASSERT_EQ(Error::kOk, listener->Listen(1));
      SockAddr peer;
      ComPtr<Socket> conn;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
      ends[0] = static_cast<net::BsdSocket*>(conn.get())->tcp();
      if (slow_reader) {
        // The window is shut well before 1 s.  The one-byte nudge gives the
        // sender an ACK to delay, and TcpOutput arms the persist timer only
        // on a pass with an ACK pending.
        world.sim().SleepFor(kNsPerSec);
        size_t n = 0;
        ASSERT_EQ(Error::kOk, conn->Send("!", 1, &n));
        world.sim().SleepFor(4 * kNsPerSec);
      }
      char buf[8192];
      size_t n = 0;
      while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
        run.stream.append(buf, n);
        if (slow_reader) {
          world.sim().SleepFor(5 * kNsPerMs);
        }
      }
      ends[0] = nullptr;
    }
    ++closed;
  });
  world.sim().Spawn("timer-client", [&] {
    {
      // Heavy loss can outlast the 30 s connect timer; retry as an
      // application would, which also puts that timer's expiry on record.
      ComPtr<Socket> conn;
      Error err;
      do {
        conn = tx.MakeSocket(SockType::kStream);
        err = conn->Connect(SockAddr{rx.addr, kPort});
        run.connect_timeouts += err == Error::kTimedOut ? 1 : 0;
      } while (err == Error::kTimedOut);
      ASSERT_EQ(Error::kOk, err);
      ends[1] = static_cast<net::BsdSocket*>(conn.get())->tcp();
      uint8_t buf[8192];
      size_t done = 0;
      while (done < sc.total) {
        size_t chunk = std::min(sizeof(buf), sc.total - done);
        for (size_t i = 0; i < chunk; ++i) {
          buf[i] = TimerPattern(done + i);
        }
        size_t n = 0;
        ASSERT_EQ(Error::kOk, conn->Send(buf, chunk, &n));
        done += n;
      }
      if (slow_reader) {
        char nudge = 0;
        size_t n = 0;
        ASSERT_EQ(Error::kOk, conn->Recv(&nudge, 1, &n));
        ASSERT_EQ(1u, n);
      }
      ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
      ends[1] = nullptr;
    }
    ++closed;
  });
  // Watches both ends after every event.  Each change of an end's snd_una,
  // rcv_nxt, snd_max or state folds into `timeline` with its simulated
  // time, so a timer that fires on another tick shows even when every total
  // stays the same.  With the window shut, only a persist probe can move
  // the sender's snd_max.
  world.sim().Spawn("timer-watch", [&] {
    uint32_t seen[2][4] = {};
    uint32_t max = 0;
    bool shut = false;
    auto fold = [&](uint64_t v) {
      run.timeline = (run.timeline ^ v) * 0x100000001b3ull;  // FNV-1a step
    };
    world.sim().WaitUntil([&] {
      uint64_t now = static_cast<uint64_t>(world.sim().clock().Now());
      for (int e = 0; e < 2; ++e) {
        if (ends[e] == nullptr) {
          continue;
        }
        const net::TcpPcb& pcb = *ends[e];
        uint32_t cur[4] = {pcb.snd_una, pcb.rcv_nxt, pcb.snd_max,
                           static_cast<uint32_t>(pcb.state)};
        for (int k = 0; k < 4; ++k) {
          if (cur[k] != seen[e][k]) {
            seen[e][k] = cur[k];
            fold(now);
            fold(static_cast<uint64_t>(e * 4 + k) << 32 | cur[k]);
          }
        }
      }
      if (const net::TcpPcb* sender = ends[1]) {
        if (shut && sender->snd_wnd == 0 && sender->snd_max != max) {
          ++run.persist_probes;
        }
        shut = sender->snd_wnd == 0;
        max = sender->snd_max;
      }
      return closed == 2;
    });
  });
  if (sc.shape == TimerShape::kHold) {
    world.sim().Spawn("timer-hold", [&] {
      world.sim().WaitUntil([&] { return closed == 2; });
      world.sim().SleepFor(kNsPerSec);  // well inside 2MSL (4 s)
      run.time_wait_seen =
          NetstatText(*tx.stack).find("TIME_WAIT") != std::string::npos;
      // The world drains when both stacks are empty, so `now` records the
      // moment 2MSL expired; give up 10 s on.
      auto empty = [&] {
        return NetstatPcbs(*tx.stack) == std::make_pair(size_t{0}, size_t{0}) &&
               NetstatPcbs(*rx.stack) == std::make_pair(size_t{0}, size_t{0});
      };
      SimTime give_up = world.sim().clock().Now() + 10 * kNsPerSec;
      world.sim().WaitUntil(
          [&] { return empty() || world.sim().clock().Now() >= give_up; });
      run.time_wait_reaped = empty();
    });
  }
  world.RunToCompletion();

  const auto& c0 = rx.stack->counters();
  const auto& c1 = tx.stack->counters();
  run.tcp_out = c0.tcp_out.value() + c1.tcp_out.value();
  run.tcp_retransmits = c0.tcp_retransmits.value() + c1.tcp_retransmits.value();
  run.delayed_acks = c0.tcp_delayed_acks.value() + c1.tcp_delayed_acks.value();
  run.frames_sent = world.fabric().frames_in();
  run.bytes_carried = world.fabric().bytes_carried();
  run.now = world.sim().clock().Now();
  return run;
}

void ExpectTimerPattern(const std::string& got, size_t total) {
  ASSERT_EQ(total, got.size());
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(TimerPattern(i), static_cast<uint8_t>(got[i]))
        << "payload corrupt at offset " << i;
  }
}

struct TimerGolden {
  TimerScenario scenario;
  uint64_t tcp_out;
  uint64_t tcp_retransmits;
  uint64_t delayed_acks;
  uint64_t frames_sent;
  uint64_t bytes_carried;
  SimTime now;
  int connect_timeouts;
  int persist_probes;
  uint64_t timeline;
};

// Recorded from the retired linear internals (full PCB-list scans and the
// BSD 200 ms/500 ms sweeps over per-pcb timer fields), after the hash +
// wheel internals had matched them on every field of every scenario.  See
// EXPERIMENTS.md, "Two-host ablation".
constexpr TimerGolden kTimerGoldens[] = {
    {{15, 1, 64 * 1024, TimerShape::kBulk},
     139, 7, 0, 142, 91645, 16000103195, 0, 0, 0xbcc46db9f339aaa3},
    {{15, 2, 64 * 1024, TimerShape::kBulk},
     136, 7, 0, 139, 90521, 47001726475, 0, 0, 0x078ac98ceb25a969},
    {{15, 3, 64 * 1024, TimerShape::kBulk},
     146, 11, 0, 148, 94488, 46000368903, 1, 0, 0xc52e9d3d4524e1b9},
    {{15, 7, 64 * 1024, TimerShape::kBulk},
     143, 10, 0, 145, 102177, 19000371690, 0, 0, 0x88fc0eee99a3a771},
    {{15, 42, 64 * 1024, TimerShape::kBulk},
     143, 7, 0, 145, 92330, 12000145816, 0, 0, 0x20ccb365283a39df},
    {{15, 99, 64 * 1024, TimerShape::kBulk},
     135, 3, 0, 137, 88966, 8001430621, 0, 0, 0xccf8d291687367ab},
    {{15, 1234, 64 * 1024, TimerShape::kBulk},
     143, 9, 0, 145, 91957, 55000408166, 0, 0, 0xf858ea05a4e0cc7a},
    {{15, 4242, 64 * 1024, TimerShape::kBulk},
     141, 9, 0, 143, 98060, 15000194934, 0, 0, 0xb82a5f756585214e},
    {{15, 31337, 64 * 1024, TimerShape::kBulk},
     152, 18, 0, 154, 109087, 270000073220, 0, 0, 0x9a89b2cb9171923c},
    {{15, 90001, 64 * 1024, TimerShape::kBulk},
     135, 4, 0, 137, 87518, 5001974001, 0, 0, 0x6cb097493fe501ea},
    {{0, 1, 128 * 1024, TimerShape::kSlowReader},
     224, 0, 1, 226, 143263, 5080000000, 0, 2, 0x52c7251200ccaa8b},
    {{0, 1, 64 * 1024, TimerShape::kHold},
     97, 0, 0, 99, 70866, 4000000000, 0, 0, 0x7d1022ad835fe267},
};

TEST(TcpTimerGoldenTest, WireBehaviourMatchesTheRetiredSweeps) {
  // Demux order and timer firing decide when each segment goes out, so any
  // change to either shows up here: in a count, the wire traffic, the
  // finishing time or the timeline of when each end advanced.
  for (const TimerGolden& g : kTimerGoldens) {
    const TimerScenario& sc = g.scenario;
    SCOPED_TRACE(::testing::Message()
                 << "loss=" << sc.loss_percent << " seed=" << sc.seed
                 << " shape=" << static_cast<int>(sc.shape));
    TimerRun run = RunTimerScenario(sc);
    ExpectTimerPattern(run.stream, sc.total);
    EXPECT_EQ(g.tcp_out, run.tcp_out);
    EXPECT_EQ(g.tcp_retransmits, run.tcp_retransmits);
    EXPECT_EQ(g.delayed_acks, run.delayed_acks);
    EXPECT_EQ(g.frames_sent, run.frames_sent);
    EXPECT_EQ(g.bytes_carried, run.bytes_carried);
    EXPECT_EQ(g.now, run.now);
    EXPECT_EQ(g.connect_timeouts, run.connect_timeouts);
    EXPECT_EQ(g.persist_probes, run.persist_probes);
    EXPECT_EQ(g.timeline, run.timeline);
    bool hold = sc.shape == TimerShape::kHold;
    EXPECT_EQ(hold, run.time_wait_seen);
    EXPECT_EQ(hold, run.time_wait_reaped);
  }
}

// ---------------------------------------------------------------------------
// PCB teardown: every kind of close returns the pcb lists to baseline
// ---------------------------------------------------------------------------

TEST(PcbTeardownTest, EveryCloseKindReturnsPcbListsToBaseline) {
  constexpr int kCycles = 6;
  constexpr int kQueued = 3;  // children left on a closing listener
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);  // passive side
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);  // active side
  const auto base_a = NetstatPcbs(*a.stack);
  const auto base_b = NetstatPcbs(*b.stack);

  bool done = false;
  world.sim().Spawn("cycles", [&] {
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, b.stack->Ping(a.addr, kNsPerSec, &rtt));
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(kCycles));
    auto connect = [&](uint16_t port) {
      ComPtr<Socket> c = b.MakeSocket(SockType::kStream);
      EXPECT_EQ(Error::kOk, c->Connect(SockAddr{a.addr, port}));
      return c;
    };
    auto accept = [&] {
      SockAddr peer;
      ComPtr<Socket> s;
      EXPECT_EQ(Error::kOk, listener->Accept(&peer, s.Receive()));
      return s;
    };
    auto expect_eof = [](const ComPtr<Socket>& s) {
      char buf[8];
      size_t n = 1;
      EXPECT_EQ(Error::kOk, s->Recv(buf, sizeof(buf), &n));
      EXPECT_EQ(0u, n);
    };

    for (int i = 0; i < kCycles; ++i) {
      // Client close: the active side sends the first FIN.
      ComPtr<Socket> c = connect(kPort);
      ComPtr<Socket> s = accept();
      c.Reset();
      expect_eof(s);
      s.Reset();

      // Server close: the passive side sends the first FIN.
      c = connect(kPort);
      s = accept();
      s.Reset();
      expect_eof(c);
      c.Reset();
    }

    // RST: data reaching a socket its owner has closed aborts the
    // connection; the server's pcb dies on the RST it sends, the client's
    // on the RST it receives (segments still in flight then draw more).
    uint64_t rst_a = a.stack->counters().tcp_rst_out.value();
    for (int i = 0; i < kCycles; ++i) {
      ComPtr<Socket> c = connect(kPort);
      ComPtr<Socket> s = accept();
      s.Reset();
      size_t sent = 0;
      EXPECT_EQ(Error::kOk, c->Send("x", 1, &sent));
      world.sim().SleepFor(50 * kNsPerMs);
      c.Reset();
    }
    EXPECT_GE(a.stack->counters().tcp_rst_out.value() - rst_a,
              static_cast<uint64_t>(kCycles));

    // Half-open abort: the client gives up before the handshake completes,
    // so its stack answers the SYN-ACK with a RST and the listener's
    // SYN_RCVD child dies off the SYN queue.
    uint64_t rst_b = b.stack->counters().tcp_rst_out.value();
    for (int i = 0; i < kCycles; ++i) {
      ComPtr<Socket> c = b.MakeSocket(SockType::kStream);
      auto ext = ComPtr<SocketExt>::FromQuery(c.get());
      ASSERT_TRUE(ext);
      ASSERT_EQ(Error::kOk, ext->SetNonBlocking(true));
      EXPECT_EQ(Error::kWouldBlock, c->Connect(SockAddr{a.addr, kPort}));
      ext.Reset();
      c.Reset();
      world.sim().SleepFor(50 * kNsPerMs);
    }
    EXPECT_EQ(static_cast<uint64_t>(kCycles),
              b.stack->counters().tcp_rst_out.value() - rst_b);
    EXPECT_NE(std::string::npos, NetstatText(*a.stack).find("synq=0 "));
    listener.Reset();

    // A listener closed with established children still on its accept
    // queue: each orphan gets an orderly FIN close.  A fresh port per
    // cycle, since the previous orphans hold theirs through TIME_WAIT.
    for (int i = 0; i < kCycles; ++i) {
      const uint16_t port = static_cast<uint16_t>(kPort + 1 + i);
      ComPtr<Socket> orphanage = a.MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, orphanage->Bind(SockAddr{kInetAny, port}));
      ASSERT_EQ(Error::kOk, orphanage->Listen(kQueued));
      std::vector<ComPtr<Socket>> clients;
      for (int k = 0; k < kQueued; ++k) {
        clients.push_back(connect(port));
      }
      world.sim().SleepFor(10 * kNsPerMs);
      EXPECT_NE(std::string::npos,
                NetstatText(*a.stack).find("acceptq=" +
                                           std::to_string(kQueued)));
      orphanage.Reset();
      for (ComPtr<Socket>& c : clients) {
        expect_eof(c);
        c.Reset();
      }
    }

    // UDP: bound receivers released with a datagram still queued.
    for (int i = 0; i < kCycles; ++i) {
      ComPtr<Socket> rx = a.MakeSocket(SockType::kDgram);
      ASSERT_EQ(Error::kOk, rx->Bind(SockAddr{kInetAny, 7000}));
      ComPtr<Socket> tx = b.MakeSocket(SockType::kDgram);
      size_t sent = 0;
      ASSERT_EQ(Error::kOk, tx->SendTo("dg", 2, SockAddr{a.addr, 7000}, &sent));
      world.sim().SleepFor(5 * kNsPerMs);
      EXPECT_EQ(base_a.second + 1, NetstatPcbs(*a.stack).second);
      rx.Reset();
      tx.Reset();
    }

    // Past 2MSL every TIME_WAIT pcb has expired.
    world.sim().SleepFor(10 * kNsPerSec);
    done = true;
  });
  world.RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(base_a, NetstatPcbs(*a.stack));
  EXPECT_EQ(base_b, NetstatPcbs(*b.stack));
}

// ---------------------------------------------------------------------------
// kmon netstat
// ---------------------------------------------------------------------------

TEST(KmonNetstatTest, DumpsPcbsWheelAndSelectors) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  // Populate every table the command walks: a listener, a UDP binding, and
  // a live selector registration.
  ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
  ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
  ASSERT_EQ(Error::kOk, listener->Listen(4));
  ComPtr<Socket> dgram = a.MakeSocket(SockType::kDgram);
  ASSERT_EQ(Error::kOk, dgram->Bind(SockAddr{kInetAny, 7777}));
  ComPtr<NetSelector> sel = a.stack->CreateSelector();
  ASSERT_EQ(Error::kOk,
            sel->Add(listener.get(), kNetReadable, /*edge=*/false, nullptr));

  KernelMonitor kmon(a.kernel.get(), &a.kernel->console());
  kmon.SetNetstatSource([&](const std::function<void(const char*)>& emit) {
    a.stack->Netstat(emit);
  });

  auto type = [&](const std::string& line) {
    a.machine->console_uart().InjectRx(line.data(), line.size());
    a.machine->console_uart().InjectRx("\r", 1);
  };
  type("netstat");
  type("c");
  world.sim().Spawn("kmon", [&] {
    TrapFrame frame;
    kmon.Enter(frame);
  });
  world.RunToCompletion();

  std::string out = a.machine->console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find("tcp_pcbs="));
  EXPECT_NE(std::string::npos, out.find("LISTEN"));
  EXPECT_NE(std::string::npos, out.find("backlog="));
  EXPECT_NE(std::string::npos, out.find("wheel now="));
  EXPECT_NE(std::string::npos, out.find("selector regs=1"));
  EXPECT_NE(std::string::npos, out.find("listen_overflows="));
}

TEST(KmonNetstatTest, PrintsATimeWaitRecordAsItsPcbPrinted) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);  // closes first
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);
  auto time_wait_lines = [&] {
    std::string lines;
    a.stack->Netstat([&](const char* line) {
      if (std::strstr(line, "TIME_WAIT") != nullptr) {
        lines += line;
        lines += '\n';
      }
    });
    return lines;
  };
  std::string held;
  std::string retired;
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = b.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[8];
    size_t n = 0;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
    }
  });
  world.sim().Spawn("client", [&] {
    ComPtr<Socket> conn = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{b.addr, kPort}));
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
    char buf[8];
    size_t n = 1;
    ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &n));
    ASSERT_EQ(0u, n);
    // The socket is still held, so TIME_WAIT keeps the full pcb...
    world.sim().WaitUntil([&] { return !time_wait_lines().empty(); });
    held = time_wait_lines();
    EXPECT_EQ(0u, a.trace.registry.Value("net.tcp.time_wait"));
    const auto pcbs = NetstatPcbs(*a.stack);
    // ...and releasing it leaves a record that prints and counts the same.
    conn.Reset();
    retired = time_wait_lines();
    EXPECT_EQ(1u, a.trace.registry.Value("net.tcp.time_wait"));
    EXPECT_EQ(pcbs, NetstatPcbs(*a.stack));
  });
  world.RunToCompletion();
  EXPECT_NE(std::string::npos, held.find("tcp TIME_WAIT "));
  EXPECT_EQ(held, retired);

  KernelMonitor kmon(a.kernel.get(), &a.kernel->console());
  kmon.SetNetstatSource([&](const std::function<void(const char*)>& emit) {
    a.stack->Netstat(emit);
  });
  a.machine->console_uart().InjectRx("netstat\rc\r", 10);
  world.sim().Spawn("kmon", [&] {
    TrapFrame frame;
    kmon.Enter(frame);
  });
  world.RunToCompletion();
  std::string out = a.machine->console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find(retired.substr(0, retired.size() - 1)));
}

}  // namespace
}  // namespace oskit::testbed
