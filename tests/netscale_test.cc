// Scale-out networking: the learning virtual switch, the epoll-style
// NetSelector readiness interface, SYN-queue overflow accounting, ephemeral
// port exhaustion, the kmon netstat command, and the property test proving
// the O(1) TCP internals (4-tuple hash + timer wheel) behave byte-for-byte
// identically to the linear BSD baseline.

#include <gtest/gtest.h>

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

  ASSERT_NE(nullptr, world.vswitch());
  EXPECT_EQ(3u, world.vswitch()->port_count());
  // Port index is attach order, which is AddHost order.
  EXPECT_EQ(0, world.vswitch()->PortOf(a.machine->nics()[0].get()));
  EXPECT_EQ(1, world.vswitch()->PortOf(b.machine->nics()[0].get()));
  EXPECT_EQ(2, world.vswitch()->PortOf(c.machine->nics()[0].get()));

  world.sim().Spawn("pings", [&] {
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
    ASSERT_EQ(Error::kOk, a.stack->Ping(c.addr, kNsPerSec, &rtt));
    ASSERT_EQ(Error::kOk, b.stack->Ping(c.addr, kNsPerSec, &rtt));
  });
  world.RunToCompletion();

  VirtualSwitch* vs = world.vswitch();
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
  world.vswitch()->SetPortConfig(2, broken);

  world.sim().Spawn("pings", [&] {
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
    EXPECT_FALSE(Ok(a.stack->Ping(c.addr, kNsPerSec, &rtt)));
    // Heal the port; the next ping re-runs ARP and succeeds.
    world.vswitch()->SetPortConfig(2, VirtualSwitch::PortConfig{});
    EXPECT_EQ(Error::kOk, a.stack->Ping(c.addr, 10 * kNsPerSec, &rtt));
  });
  world.RunToCompletion();
  EXPECT_GT(world.vswitch()->frames_dropped(), 0u);
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

  // The scalable internals really carried the load: demux by hash, no
  // linear PCB scans, timers through the wheel, one registration per
  // connection plus the listener.
  const auto& sc = server.stack->counters();
  EXPECT_EQ(0u, sc.pcb_scan_full.value());
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
  EXPECT_GE(world.vswitch()->port_count(), 4u);
  EXPECT_GT(world.vswitch()->frames_unicast(), 0u);
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
// Hash+wheel vs linear internals: behavioural equivalence
// ---------------------------------------------------------------------------

// One bulk transfer host(1) -> host(0) of `total` patterned bytes over a
// lossy wire; returns the received byte stream.
std::string LossyPatternedTransfer(World& world, size_t total) {
  Host& rx = world.host(0);
  Host& tx = world.host(1);
  auto pattern = [](size_t i) { return static_cast<uint8_t>(i * 37 + 11); };
  std::string got;
  got.reserve(total);
  world.sim().Spawn("eq-server", [&] {
    ComPtr<Socket> listener = rx.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[4096];
    size_t n = 0;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      got.append(buf, n);
    }
  });
  world.sim().Spawn("eq-client", [&] {
    ComPtr<Socket> conn = tx.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{rx.addr, kPort}));
    uint8_t buf[8192];
    size_t done = 0;
    while (done < total) {
      size_t chunk = std::min(sizeof(buf), total - done);
      for (size_t i = 0; i < chunk; ++i) {
        buf[i] = pattern(done + i);
      }
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Send(buf, chunk, &n));
      done += n;
    }
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });
  world.RunToCompletion();
  return got;
}

TEST(TcpInternalsEquivalenceTest, HashWheelMatchesLinearByteForByte) {
  // The O(1) internals are a pure implementation change: for every fault
  // seed, the identical lossy-wire transfer under the 4-tuple hash + timer
  // wheel must produce the exact byte stream AND the exact segment counts of
  // the linear-scan + fast/slow-sweep baseline.  Any divergence in demux
  // order or timer firing shows up as a different retransmit schedule, which
  // this sweep would catch via the wire's deterministic fault RNG.
  constexpr size_t kTotal = 64 * 1024;
  const uint64_t seeds[] = {1, 7, 99, 1234, 31337};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    std::string streams[2];
    uint64_t tcp_out[2];
    uint64_t rexmt[2];
    for (int linear = 0; linear < 2; ++linear) {
      SCOPED_TRACE(linear ? "linear baseline" : "hash+wheel");
      EthernetWire::Config wc;
      wc.loss_percent = 2;
      wc.duplicate_percent = 1;
      wc.reorder_jitter_ns = 200 * kNsPerUs;
      wc.fault_seed = seed;
      World world(wc);
      world.AddHost("rx", NetConfig::kNativeBsd);
      world.AddHost("tx", NetConfig::kNativeBsd);
      world.host(0).stack->SetLinearTcpInternals(linear != 0);
      world.host(1).stack->SetLinearTcpInternals(linear != 0);

      streams[linear] = LossyPatternedTransfer(world, kTotal);
      ASSERT_EQ(kTotal, streams[linear].size());
      const auto& c0 = world.host(0).stack->counters();
      const auto& c1 = world.host(1).stack->counters();
      tcp_out[linear] = c0.tcp_out.value() + c1.tcp_out.value();
      rexmt[linear] = c0.tcp_retransmits.value() + c1.tcp_retransmits.value();
      if (linear) {
        // The baseline really ran the old machinery...
        EXPECT_GT(c0.pcb_scan_full.value() + c1.pcb_scan_full.value(), 0u);
        EXPECT_EQ(0u, c0.pcb_hash_hits.value() + c1.pcb_hash_hits.value());
      } else {
        // ...and the default really ran the new one.
        EXPECT_EQ(0u, c0.pcb_scan_full.value() + c1.pcb_scan_full.value());
        EXPECT_GT(c0.pcb_hash_hits.value() + c1.pcb_hash_hits.value(), 0u);
      }
    }
    EXPECT_EQ(streams[0], streams[1]) << "internals changed delivered bytes";
    EXPECT_EQ(tcp_out[0], tcp_out[1]) << "internals changed segment schedule";
    EXPECT_EQ(rexmt[0], rexmt[1]) << "internals changed retransmit schedule";
    for (size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(static_cast<uint8_t>(i * 37 + 11),
                static_cast<uint8_t>(streams[0][i]))
          << "payload corrupt at offset " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// PCB teardown: every kind of close returns the pcb lists to baseline
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
  EXPECT_NE(std::string::npos, out.find("mode="));
  EXPECT_NE(std::string::npos, out.find("LISTEN"));
  EXPECT_NE(std::string::npos, out.find("backlog="));
  EXPECT_NE(std::string::npos, out.find("wheel now="));
  EXPECT_NE(std::string::npos, out.find("selector regs=1"));
  EXPECT_NE(std::string::npos, out.find("listen_overflows="));
}

}  // namespace
}  // namespace oskit::testbed
