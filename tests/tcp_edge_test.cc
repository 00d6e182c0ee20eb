// TCP state-machine edge cases on the BSD-idiom stack: teardown variants,
// half-close semantics, zero-window persist probing, backlog limits, RST
// behaviour, and the §6.2.10 clean-exit fix.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/base/byteorder.h"
#include "src/base/checksum.h"
#include "src/libc/posix.h"
#include "src/testbed/testbed.h"

// Live heap bytes of the whole test binary, kept by the replaced global
// operator new/delete below so TcpTimeWaitMemoryTest can see what a
// TIME_WAIT entry costs.
static std::atomic<size_t> g_live_heap_bytes{0};

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_live_heap_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_heap_bytes.fetch_sub(malloc_usable_size(p),
                                std::memory_order_relaxed);
    std::free(p);
  }
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace oskit::testbed {
namespace {

constexpr uint16_t kPort = 6000;

class TcpEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    world_->AddHost("a", NetConfig::kNativeBsd);
    world_->AddHost("b", NetConfig::kNativeBsd);
  }

  Host& a() { return world_->host(0); }
  Host& b() { return world_->host(1); }

  std::unique_ptr<World> world_;
};

TEST_F(TcpEdgeTest, HalfCloseStillDeliversDataTheOtherWay) {
  // Client shuts down its write side, then continues READING: the server
  // must see EOF yet still be able to send its response.
  std::string client_got;
  world_->sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    // Drain to EOF first.
    char buf[64];
    size_t n = 0;
    std::string request;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      request.append(buf, n);
    }
    EXPECT_EQ("QUERY", request);
    // Now answer on the still-open other half.
    size_t sent = 0;
    ASSERT_EQ(Error::kOk, conn->Send("ANSWER", 6, &sent));
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });
  world_->sim().Spawn("client", [&] {
    ComPtr<Socket> conn = b().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a().addr, kPort}));
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Send("QUERY", 5, &n));
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
    char buf[64];
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      client_got.append(buf, n);
    }
  });
  world_->RunToCompletion();
  EXPECT_EQ("ANSWER", client_got);
}

TEST_F(TcpEdgeTest, SendAfterShutdownIsEPIPE) {
  world_->sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[8];
    size_t n;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
    }
  });
  world_->sim().Spawn("client", [&] {
    ComPtr<Socket> conn = b().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a().addr, kPort}));
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
    size_t n = 0;
    EXPECT_EQ(Error::kPipe, conn->Send("x", 1, &n));
  });
  world_->RunToCompletion();
}

TEST_F(TcpEdgeTest, ZeroWindowPersistProbeRecovers) {
  // The receiver stops reading until its window closes; the sender must
  // stall, then resume via window updates / persist probing rather than
  // deadlock or lose data.
  constexpr size_t kTotal = 256 * 1024;  // far beyond the 32 KB window
  size_t received = 0;
  world_->sim().Spawn("lazy-receiver", [&] {
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    // Let the sender fill our receive buffer completely.
    world_->sim().SleepFor(3 * kNsPerSec);
    std::vector<uint8_t> buf(8 * 1024);
    size_t n = 0;
    while (Ok(conn->Recv(buf.data(), buf.size(), &n)) && n > 0) {
      received += n;
      world_->sim().SleepFor(5 * kNsPerMs);  // keep draining slowly
    }
  });
  world_->sim().Spawn("sender", [&] {
    ComPtr<Socket> conn = b().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a().addr, kPort}));
    std::vector<uint8_t> buf(16 * 1024, 0x77);
    size_t sent = 0;
    while (sent < kTotal) {
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Send(buf.data(), buf.size(), &n));
      sent += n;
    }
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });
  world_->RunToCompletion();
  EXPECT_EQ(kTotal, received);
}

TEST_F(TcpEdgeTest, BacklogOverflowDropsSynsButServiceRecovers) {
  // More simultaneous connectors than the listen backlog: the extras' SYNs
  // are dropped (and retried); everyone eventually gets served.
  constexpr int kClients = 6;
  int served = 0;
  bool listening = false;
  world_->sim().Spawn("server", [&] {
    // Warm the ARP caches first: otherwise the one-deep ARP pending queue
    // (faithful BSD behaviour, see the UDP fragmentation test) would eat
    // most of the simultaneous SYN burst before it reaches the wire and
    // this test would measure ARP, not the listen backlog.
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, a().stack->Ping(b().addr, kNsPerSec, &rtt));
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));  // tiny backlog
    listening = true;
    for (int i = 0; i < kClients; ++i) {
      SockAddr peer;
      ComPtr<Socket> conn;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Send("ok", 2, &n));
      ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
      ++served;
      // Accept slowly so the queue backs up.
      world_->sim().SleepFor(200 * kNsPerMs);
    }
  });
  for (int c = 0; c < kClients; ++c) {
    world_->sim().Spawn("client", [&, c] {
      world_->sim().WaitUntil([&] { return listening; });
      ComPtr<Socket> conn = b().MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a().addr, kPort}));
      char buf[4];
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &n));
      EXPECT_EQ(2u, n);
    });
  }
  world_->RunToCompletion();
  EXPECT_EQ(kClients, served);
  EXPECT_GT(b().stack->counters().tcp_retransmits, 0u);  // dropped SYNs retried
}

TEST_F(TcpEdgeTest, PeerResetSurfacesAsConnReset) {
  world_->sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    Socket* conn_raw = nullptr;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, &conn_raw));
    // Forge an abortive close: drop the connection state entirely, so the
    // client's next data hits a fresh stack with no pcb -> RST.
    // (Simplest honest way to provoke an RST with the public API: destroy
    // the socket without reading, then have the client send into the void
    // after TIME_WAIT-free teardown.)
    conn_raw->Release();
  });
  world_->sim().Spawn("client", [&] {
    ComPtr<Socket> conn = b().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a().addr, kPort}));
    // Keep sending until the teardown/RST surfaces as an error or EOF.
    std::vector<uint8_t> buf(1024, 1);
    Error err = Error::kOk;
    for (int i = 0; i < 200 && Ok(err); ++i) {
      size_t n = 0;
      err = conn->Send(buf.data(), buf.size(), &n);
      world_->sim().SleepFor(10 * kNsPerMs);
    }
    EXPECT_FALSE(Ok(err));  // kConnReset or kPipe depending on timing
  });
  world_->RunToCompletion();
}

TEST_F(TcpEdgeTest, CleanExitSendsFinNotSilence) {
  // The §6.2.10 fix: when a client "exits" (its PosixIo dies), its peers
  // see an orderly EOF instead of hanging.
  bool server_saw_eof = false;
  world_->sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[16];
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &n));
    EXPECT_EQ(5u, n);
    // The client exits without closing; we must still reach EOF.
    ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &n));
    EXPECT_EQ(0u, n);
    server_saw_eof = true;
  });
  world_->sim().Spawn("exiting-client", [&] {
    libc::PosixIo posix;
    posix.SetSocketCreator(b().socket_factory);
    int fd = posix.Socket(SockDomain::kInet, SockType::kStream);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(0, posix.Connect(fd, SockAddr{a().addr, kPort}));
    ASSERT_EQ(5, posix.Write(fd, "hello", 5));
    // "exit": PosixIo's destructor runs CloseAll -> orderly FIN.
  });
  world_->RunToCompletion();
  EXPECT_TRUE(server_saw_eof);
}

TEST_F(TcpEdgeTest, TwoConnectionsAreIndependent) {
  // Two sockets between the same pair of hosts, opposite directions of
  // dominant flow, must not interfere.
  std::string got1;
  std::string got2;
  world_->sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(2));
    for (int i = 0; i < 2; ++i) {
      SockAddr peer;
      ComPtr<Socket> conn;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
      // Echo one message per connection, tagged.
      char buf[32];
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &n));
      std::string reply = std::string(buf, n) + "-reply";
      size_t sent = 0;
      ASSERT_EQ(Error::kOk, conn->Send(reply.data(), reply.size(), &sent));
      ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
    }
  });
  auto client = [&](const char* tag, std::string* got) {
    ComPtr<Socket> conn = b().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a().addr, kPort}));
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Send(tag, strlen(tag), &n));
    char buf[32];
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      got->append(buf, n);
    }
  };
  world_->sim().Spawn("c1", [&] { client("one", &got1); });
  world_->sim().Spawn("c2", [&] { client("two", &got2); });
  world_->RunToCompletion();
  EXPECT_EQ("one-reply", got1);
  EXPECT_EQ("two-reply", got2);
}

TEST_F(TcpEdgeTest, MssOptionIsNegotiatedDown) {
  // A host configured with a smaller MSS must constrain the peer's
  // segments via the SYN option.
  world_->sim().Spawn("flow", [&] {
    ComPtr<Socket> listener = a().MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    ComPtr<Socket> client = b().MakeSocket(SockType::kStream);
    // Shrink the client pcb's MSS before connecting (open implementation:
    // the pcb is reachable through the component).
    auto* bsd = static_cast<net::BsdSocket*>(client.get());
    bsd->tcp()->mss = 536;
    ASSERT_EQ(Error::kOk, client->Connect(SockAddr{a().addr, kPort}));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    // Server -> client bulk; every segment must respect the learned MSS.
    std::vector<uint8_t> buf(20000, 9);
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Send(buf.data(), buf.size(), &n));
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
    size_t total = 0;
    while (Ok(client->Recv(buf.data(), buf.size(), &n)) && n > 0) {
      total += n;
    }
    EXPECT_EQ(20000u, total);
    auto* server_pcb = static_cast<net::BsdSocket*>(conn.get())->tcp();
    EXPECT_EQ(536u, server_pcb->mss);
  });
  world_->RunToCompletion();
}

TEST(TcpFaultTest, DeliversIntactUnderCombinedFaults) {
  // Wire loss/reorder plus injected NIC RX corruption and allocator OOM at
  // the mbuf import boundary: TCP must either deliver the payload intact or
  // surface an error — never silently corrupt or truncate.
  fault::FaultEnv fenv(1234);
  EthernetWire::Config wc;
  wc.loss_percent = 2;
  wc.reorder_jitter_ns = 200 * kNsPerUs;
  wc.fault_seed = 1234;
  World world(wc, &fenv);
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  fault::FaultSpec corrupt;
  corrupt.probability_percent = 2;
  fenv.Arm("nic.rx.corrupt", corrupt);
  fault::FaultSpec oom;
  oom.probability_percent = 2;
  fenv.Arm("mbuf.rx_alloc", oom);
  fault::FaultSpec lmm_oom;
  lmm_oom.probability_percent = 1;
  fenv.Arm("lmm.alloc", lmm_oom);

  constexpr size_t kTotal = 128 * 1024;
  auto pattern = [](size_t i) { return static_cast<uint8_t>(i * 37 + 11); };
  std::string got;
  got.reserve(kTotal);
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
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
  world.sim().Spawn("client", [&] {
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
    uint8_t buf[4096];
    size_t done = 0;
    while (done < kTotal) {
      size_t chunk = std::min(sizeof(buf), kTotal - done);
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
  fenv.DisarmAll();

  ASSERT_EQ(kTotal, got.size());
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(pattern(i), static_cast<uint8_t>(got[i])) << "at offset " << i;
  }
  // The faults really happened and the recovery machinery really acted.
  EXPECT_GT(fenv.fires("nic.rx.corrupt"), 0u);
  EXPECT_GT(fenv.fires("mbuf.rx_alloc"), 0u);
  EXPECT_GT(a.stack->counters().tcp_retransmits +
                b.stack->counters().tcp_retransmits,
            0u);
  EXPECT_GT(a.trace.registry.Value("net.rx.alloc_drops") +
                a.trace.registry.Value("bsd.rx.alloc_drops") +
                b.trace.registry.Value("bsd.rx.alloc_drops"),
            0u);
}

TEST(TcpFaultTest, AbortAnnouncesResetToPeer) {
  // BSD tcp_drop semantics: when one side gives up retransmitting, the abort
  // must be announced with a RST so the peer's blocked Recv returns
  // kConnReset instead of hanging on a half-dead connection forever.
  //
  // The failure is made asymmetric by muting only the server's transmitter:
  // the client's segments still arrive, but no ACK ever comes back, so the
  // client exhausts its retransmit budget and aborts — and its RST can still
  // cross the (healthy) wire.
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  fault::FaultEnv mute_env(1);
  a.machine->nics()[0]->SetFaultEnv(&mute_env);

  Error server_err = Error::kOk;
  Error client_err = Error::kOk;
  size_t server_got = 0;
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[4096];
    size_t n = 0;
    while (Ok(server_err = conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      server_got += n;
    }
  });
  world.sim().Spawn("client", [&] {
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
    uint8_t buf[4096] = {};
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Send(buf, sizeof(buf), &n));
    world.sim().WaitUntil([&] { return server_got >= sizeof(buf); });

    fault::FaultSpec mute;
    mute.probability_percent = 100;
    mute_env.Arm("nic.tx.drop", mute);
    ASSERT_EQ(Error::kOk, conn->Send(buf, sizeof(buf), &n));
    // Block until the abort: the retransmit give-up sets so_error and wakes
    // this sleeper.
    while (Ok(client_err = conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
    }
  });
  // The retransmit budget (RTO doubling from 6 s to the 64 s cap, twelve
  // times) takes ~660 simulated seconds to exhaust.
  world.RunToCompletion(1800 * kNsPerSec);
  mute_env.DisarmAll();

  EXPECT_EQ(Error::kTimedOut, client_err);   // the aborting side
  EXPECT_EQ(Error::kConnReset, server_err);  // the peer, told via RST
  EXPECT_GT(b.stack->counters().tcp_rst_out.value(), 0u);
  EXPECT_GT(mute_env.fires("nic.tx.drop"), 0u);
}

// ---- Retransmit backoff (Karn's rule with BSD RTT timing) ----
//
// Each retransmit timeout doubles the RTO; the next clean RTT sample (the
// ACK of new data sent after the retransmit) must undo the doubling.
// Otherwise every later RTO stays backed off and a long-lived connection
// that loses a segment now and then is aborted by the give-up limit (12
// backoffs) even though every loss was repaired.

// Streams `rounds` pairs of 512-byte chunks from b to a: a clean chunk, then
// one whose segment b's NIC drops, so each pair costs exactly one retransmit
// timeout and no two retransmits are consecutive.  `on_acked(pcb, lossy)`
// runs with the sender's pcb once each chunk is fully acknowledged.
// Returns the bytes a received; `*retransmits` gets b's retransmit count.
size_t SpacedLossTransfer(
    int rounds, const std::function<void(const net::TcpPcb&, bool)>& on_acked,
    uint64_t* retransmits) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);
  fault::FaultEnv drop_env(1);
  b.machine->nics()[0]->SetFaultEnv(&drop_env);

  size_t received = 0;
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[4096];
    size_t n = 0;
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
      received += n;
    }
  });
  world.sim().Spawn("client", [&] {
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
    const net::TcpPcb* pcb = static_cast<net::BsdSocket*>(conn.get())->tcp();
    drop_env.Arm("nic.tx.drop", fault::FaultSpec{});  // counts, never fires
    uint8_t buf[512] = {};
    for (int i = 0; i < 2 * rounds; ++i) {
      bool lossy = i % 2 == 1;
      if (lossy) {
        fault::FaultSpec drop;  // the next frame b sends: this chunk
        drop.nth_call = drop_env.calls("nic.tx.drop") + 1;
        drop_env.Arm("nic.tx.drop", drop);
      }
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Send(buf, sizeof(buf), &n));
      world.sim().WaitUntil([&] {
        return pcb->snd_una == pcb->snd_max ||
               pcb->state == net::TcpState::kClosed;
      });
      ASSERT_TRUE(pcb->state != net::TcpState::kClosed)
          << "aborted in round " << i / 2 << " with " << pcb->rexmt_shift
          << " backoffs";
      on_acked(*pcb, lossy);
    }
    drop_env.DisarmAll();
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });
  // Generous: a stack that never resets the backoff needs ~10 simulated
  // minutes to reach the give-up limit.
  world.RunToCompletion(3600 * kNsPerSec);
  *retransmits = b.stack->counters().tcp_retransmits.value();
  return received;
}

TEST(TcpBackoffTest, SpacedRetransmitsNeverAbortTheConnection) {
  constexpr int kRounds = 16;  // more lifetime retransmits than the limit
  uint64_t retransmits = 0;
  size_t received = SpacedLossTransfer(
      kRounds, [](const net::TcpPcb&, bool) {}, &retransmits);
  EXPECT_EQ(static_cast<uint64_t>(kRounds), retransmits);
  EXPECT_EQ(2u * kRounds * 512, received);
}

TEST(TcpBackoffTest, CleanSampleEndsTheBackoff) {
  uint64_t retransmits = 0;
  size_t received = SpacedLossTransfer(
      4,
      [](const net::TcpPcb& pcb, bool lossy) {
        // The repaired loss leaves one backoff until new data is timed...
        EXPECT_EQ(lossy ? 1 : 0, pcb.rexmt_shift);
        if (!lossy) {
          // ...and one clean sample restores the unbacked RTO.
          int unbacked = std::max(2, (pcb.srtt >> 3) + pcb.rttvar);
          EXPECT_EQ(unbacked, pcb.RtoTicks());
        }
      },
      &retransmits);
  EXPECT_EQ(4u, retransmits);
  EXPECT_EQ(8u * 512, received);
}

// ---- Scatter-gather delivery (§4.7.3, the BufIoVec send path) ----
//
// OSKit-configured hosts transmit TCP segments as multi-mbuf chains (header
// mbuf + cluster-backed payload pieces) straight through the glue's gather
// path.  These tests prove the zero-copy path delivers byte-identical data
// under adverse wire conditions, and that it never falls back to the
// flatten/copy path while doing so.

// One bulk transfer host(1) -> host(0) of `total` patterned bytes; returns
// the bytes the receiver saw, for byte-for-byte comparison.
std::string PatternedTransfer(World& world, size_t total) {
  Host& rx = world.host(0);
  Host& tx = world.host(1);
  auto pattern = [](size_t i) { return static_cast<uint8_t>(i * 37 + 11); };
  std::string got;
  got.reserve(total);
  world.sim().Spawn("sg-server", [&] {
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
  world.sim().Spawn("sg-client", [&] {
    ComPtr<Socket> conn = tx.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{rx.addr, kPort}));
    uint8_t buf[16384];
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

void ExpectPattern(const std::string& got, size_t total) {
  ASSERT_EQ(total, got.size());
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(static_cast<uint8_t>(i * 37 + 11), static_cast<uint8_t>(got[i]))
        << "payload corrupt at offset " << i;
  }
}

TEST(TcpScatterGatherTest, MultiMbufSegmentsSurviveLossyReorderingWire) {
  // Loss, duplication and reordering force retransmits and out-of-order
  // reassembly; every retransmitted segment is itself a fresh multi-mbuf
  // chain through the gather path.  The payload must arrive byte-identical
  // and the sender's glue must never have flattened.
  EthernetWire::Config wc;
  wc.loss_percent = 2;
  wc.duplicate_percent = 1;
  wc.reorder_jitter_ns = 200 * kNsPerUs;
  wc.fault_seed = 77;
  World world(wc);
  world.AddHost("rx", NetConfig::kOskit);
  world.AddHost("tx", NetConfig::kOskit);

  constexpr size_t kTotal = 192 * 1024;
  std::string got = PatternedTransfer(world, kTotal);
  ExpectPattern(got, kTotal);

  Host& tx = world.host(1);
  EXPECT_GT(tx.trace.registry.Value("glue.send.sg_frames"), 0u);
  EXPECT_EQ(0u, tx.trace.registry.Value("glue.send.copied"));
  EXPECT_EQ(0u, tx.trace.registry.Value("glue.send.copied_bytes"));
  EXPECT_GT(tx.stack->counters().tcp_retransmits, 0u);  // the wire really bit
}

TEST(TcpScatterGatherTest, ThreeMbufSegmentsTransmitWithZeroFlattens) {
  // Regression for the removed single-mbuf failure branch: bulk segments
  // whose cluster-backed payload straddles a cluster boundary form
  // header + two payload pieces = 3-mbuf chains.  They must ride the gather
  // path — the flatten counters must not move at all.
  World world;
  world.AddHost("rx", NetConfig::kOskit);
  world.AddHost("tx", NetConfig::kOskit);

  constexpr size_t kTotal = 256 * 1024;
  std::string got = PatternedTransfer(world, kTotal);
  ExpectPattern(got, kTotal);

  Host& tx = world.host(1);
  uint64_t frames = tx.trace.registry.Value("glue.send.sg_frames");
  uint64_t segments = tx.trace.registry.Value("glue.send.sg_segments");
  EXPECT_GT(frames, 100u);
  // Strictly more than two segments per gathered frame on average proves
  // 3-mbuf segments went through (header mbuf + a payload that straddles a
  // cluster boundary), not just header+single-cluster pairs.
  EXPECT_GT(segments, 2 * frames);
  // Zero flatten-counter increments: the copy path never ran.
  EXPECT_EQ(0u, tx.trace.registry.Value("glue.send.copied"));
  EXPECT_EQ(0u, tx.trace.registry.Value("glue.send.copied_bytes"));
}

TEST(TcpScatterGatherTest, FaultCampaignSeedSweepNoSilentCorruption) {
  // A seed sweep in the fault-campaign style: each seed arms NIC RX
  // corruption and mbuf-import OOM on a lossy wire, with OSKit hosts
  // sending multi-mbuf chains through the gather path.  Whatever the fault
  // timing, the delivered bytes must be exactly the sent bytes.
  constexpr size_t kTotal = 64 * 1024;
  const uint64_t seeds[] = {1, 7, 99, 1234, 31337};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    fault::FaultEnv fenv(seed);
    EthernetWire::Config wc;
    wc.loss_percent = 1;
    wc.reorder_jitter_ns = 100 * kNsPerUs;
    wc.fault_seed = seed;
    World world(wc, &fenv);
    world.AddHost("rx", NetConfig::kOskit);
    world.AddHost("tx", NetConfig::kOskit);

    fault::FaultSpec corrupt;
    corrupt.probability_percent = 2;
    fenv.Arm("nic.rx.corrupt", corrupt);
    fault::FaultSpec oom;
    oom.probability_percent = 1;
    fenv.Arm("mbuf.rx_alloc", oom);

    std::string got = PatternedTransfer(world, kTotal);
    fenv.DisarmAll();
    ExpectPattern(got, kTotal);

    Host& tx = world.host(1);
    EXPECT_GT(tx.trace.registry.Value("glue.send.sg_frames"), 0u);
    EXPECT_EQ(0u, tx.trace.registry.Value("glue.send.copied"));
  }
}

// ---- Interrupt-mitigation equivalence (the NAPI ablation's safety net) ----

TEST(TcpNapiEquivalenceTest, CoalescedAndPerFrameStreamsAreByteIdentical) {
  // Interrupt coalescing + budgeted polled RX change WHEN frames are
  // delivered and in what batch sizes — they must never change WHAT is
  // delivered.  For each fault seed, run the identical patterned transfer
  // under the 1997 per-frame configuration and under kOskitNapi on an
  // equally hostile wire (loss, reordering, lost IRQs, spurious IRQs, RX
  // corruption) and demand byte-identical received streams.
  constexpr size_t kTotal = 48 * 1024;
  const uint64_t seeds[] = {1, 7, 99, 1234, 31337};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    std::string streams[2];
    for (int napi = 0; napi < 2; ++napi) {
      SCOPED_TRACE(napi ? "coalesced+polled" : "per-frame");
      fault::FaultEnv fenv(seed);
      EthernetWire::Config wc;
      wc.loss_percent = 1;
      wc.reorder_jitter_ns = 100 * kNsPerUs;
      wc.fault_seed = seed;
      World world(wc, &fenv);
      NetConfig config = napi ? NetConfig::kOskitNapi : NetConfig::kOskit;
      world.AddHost("rx", config);
      world.AddHost("tx", config);

      fault::FaultSpec miss_irq;
      miss_irq.probability_percent = 4;
      fenv.Arm("nic.rx.miss_irq", miss_irq);
      fault::FaultSpec spurious;
      spurious.probability_percent = 2;
      fenv.Arm("nic.irq.spurious", spurious);
      fault::FaultSpec corrupt;
      corrupt.probability_percent = 2;
      fenv.Arm("nic.rx.corrupt", corrupt);

      streams[napi] = PatternedTransfer(world, kTotal);
      fenv.DisarmAll();
      ExpectPattern(streams[napi], kTotal);
      if (napi) {
        // Prove the mitigated run actually exercised the poll machinery
        // (otherwise this test would vacuously compare per-frame to
        // per-frame).
        Host& rx = world.host(0);
        EXPECT_GT(rx.trace.registry.Value("glue.rx.poll.polls"), 0u);
        EXPECT_GT(rx.trace.registry.Value("nic.rx.coalesce.irqs"), 0u);
      }
    }
    EXPECT_EQ(streams[0], streams[1])
        << "mitigation changed the delivered bytes";
  }
}

// ---- TIME_WAIT: golden wire behaviour ----
//
// Host b closes first, so after the exchange its connection sits in
// TIME_WAIT with the socket already released.  A tap on the wire then
// speaks for host a (whose own transmitter is muted, so its RSTs for the
// dead connection stay off the wire) and delivers one class of segment to
// b.  The goldens record every segment b answers with, the net.tcp and
// net.pcb counters that moved, the state right after delivery, and the
// wheel tick at which the 4-tuple leaves the stack.  They were recorded
// with the TIME_WAIT end held as a full pcb on the general input path, and
// every class runs twice: b bound natively (one input call per frame) and
// b on kOskitNapi (frames arrive in RX batches).

// Sequence numbers in an injected or captured segment are relative to the
// TIME_WAIT end: seq to its rcv_nxt when injected and to its snd_nxt when
// captured, ack the other way round.
struct TimeWaitSegment {
  uint8_t flags;
  int32_t seq;
  int32_t ack;
  uint16_t len;       // payload bytes
  bool past_window;   // seq is also offset by the advertised window
};

// Sits on the wire next to the two hosts: records what `watched` sends and
// injects frames as `peer`.
class WireTap final : public WireEndpoint {
 public:
  WireTap(VirtualSwitch* fabric, const EtherAddr& watched, const EtherAddr& peer)
      : fabric_(fabric), watched_(watched), peer_(peer) {
    fabric_->Attach(this);
  }

  void FrameArrived(const uint8_t* frame, size_t len) override {
    if (len < kEtherHeaderSize + net::kIpHeaderSize + net::kTcpHeaderSize) {
      return;
    }
    net::EtherHeader eh = net::EtherHeader::Parse(frame);
    net::Ipv4Header ip;
    if (!(eh.src == watched_) || eh.type != net::kEtherTypeIp ||
        !net::Ipv4Header::Parse(frame + kEtherHeaderSize,
                                len - kEtherHeaderSize, &ip) ||
        ip.proto != net::kIpProtoTcp) {
      return;
    }
    net::TcpHeader th;
    const uint8_t* seg = frame + kEtherHeaderSize + ip.header_len;
    if (net::TcpHeader::Parse(seg, len - kEtherHeaderSize - ip.header_len,
                              &th)) {
      sent_.push_back(th);
    }
  }

  // Sends one TCP segment from (src, sport) to (dst, dport) as `peer`.
  void Inject(InetAddr src, uint16_t sport, InetAddr dst, uint16_t dport,
              uint8_t flags, uint32_t seq, uint32_t ack, uint16_t window,
              uint16_t len, bool with_mss) {
    size_t tcp_len = net::kTcpHeaderSize + (with_mss ? 4 : 0) + len;
    std::vector<uint8_t> frame(kEtherHeaderSize + net::kIpHeaderSize + tcp_len,
                               'x');
    net::EtherHeader eh;
    eh.dst = watched_;
    eh.src = peer_;
    eh.type = net::kEtherTypeIp;
    eh.Serialize(frame.data());
    net::Ipv4Header ip;
    ip.total_len = static_cast<uint16_t>(net::kIpHeaderSize + tcp_len);
    ip.ident = ++ident_;
    ip.proto = net::kIpProtoTcp;
    ip.src = src;
    ip.dst = dst;
    ip.Serialize(frame.data() + kEtherHeaderSize);
    uint8_t* seg = frame.data() + kEtherHeaderSize + net::kIpHeaderSize;
    net::TcpHeader th;
    th.src_port = sport;
    th.dst_port = dport;
    th.seq = seq;
    th.ack = ack;
    th.flags = flags;
    th.window = window;
    th.mss_option = 1460;
    th.Serialize(seg, with_mss);
    uint8_t pseudo[12];
    StoreBe32(pseudo, src.value);
    StoreBe32(pseudo + 4, dst.value);
    pseudo[8] = 0;
    pseudo[9] = net::kIpProtoTcp;
    StoreBe16(pseudo + 10, static_cast<uint16_t>(tcp_len));
    InetChecksum cksum;
    cksum.Add(pseudo, sizeof(pseudo));
    cksum.Add(seg, tcp_len);
    StoreBe16(seg + 16, cksum.Finish());
    const uint8_t* chunk = frame.data();
    size_t frame_len = frame.size();
    fabric_->Transmit(this, &chunk, &frame_len, 1);
  }

  std::vector<net::TcpHeader>& sent() { return sent_; }

 private:
  static constexpr size_t kEtherHeaderSize = 14;

  VirtualSwitch* fabric_;
  EtherAddr watched_;
  EtherAddr peer_;
  uint16_t ident_ = 0;
  std::vector<net::TcpHeader> sent_;
};

struct TimeWaitOutcome {
  std::string sent;      // "<flags> <seq> [<ack>] w<window>" per segment
  std::string counters;  // "<name>+<delta>" per moved counter
  std::string state;     // the 4-tuple's state right after delivery
  uint64_t gone_ticks = 0;  // wheel ticks from delivery until it left
};

std::string FormatFlags(uint8_t flags) {
  std::string out;
  const char* names = "FSRPA";
  for (int bit = 0; bit < 5; ++bit) {
    if ((flags & (1u << bit)) != 0) {
      out += names[bit];
    }
  }
  return out;
}

// The non-gauge net.tcp.* and net.pcb.* counters.
trace::CounterSnapshot TcpCounters(const Host& h) {
  trace::CounterSnapshot snap;
  for (const char* prefix : {"net.tcp.", "net.pcb."}) {
    h.trace.registry.ForEach(
        [&](const char* name, uint64_t value, bool gauge) {
          if (!gauge) {
            snap[name] = value;
          }
        },
        prefix);
  }
  return snap;
}

// The state netstat shows for the connection whose local end is `local`,
// or "gone".
std::string NetstatState(net::NetStack& stack, const std::string& local) {
  std::string state = "gone";
  stack.Netstat([&](const char* line) {
    char st[32];
    char l[32];
    if (std::sscanf(line, "tcp %31s %31s ->", st, l) == 2 && local == l) {
      state = st;
    }
  });
  return state;
}

// Drives b's connection to a into TIME_WAIT, detached, then runs `probe`
// with the world's hosts, the tap, the TIME_WAIT end's local endpoint as
// netstat prints it, and its last ACK (snd_nxt, rcv_nxt, window).
using TimeWaitProbe = std::function<void(
    World& world, Host& a, Host& b, WireTap& tap, const std::string& local,
    uint16_t lport, const net::TcpHeader& last_ack)>;

void RunTimeWaitScenario(NetConfig b_config, const TimeWaitProbe& probe) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", b_config);
  WireTap tap(&world.fabric(), b.machine->nics()[0]->mac(),
              a.machine->nics()[0]->mac());
  fault::FaultEnv mute_env(1);
  a.machine->nics()[0]->SetFaultEnv(&mute_env);

  uint16_t lport = 0;
  world.sim().Spawn("tw-server", [&] {
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[512] = {};
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Send(buf, 300, &n));
    while (Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
    }
  });
  world.sim().Spawn("tw-client", [&] {
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
    SockAddr self;
    ASSERT_EQ(Error::kOk, conn->GetSockName(&self));
    lport = self.port;
    char buf[512] = {};
    size_t got = 0;
    while (got < 300) {
      size_t n = 0;
      ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &n));
      got += n;
    }
    size_t n = 0;
    ASSERT_EQ(Error::kOk, conn->Send(buf, 200, &n));
    // Released here: b sends the first FIN and meets a's in FIN_WAIT_2.
  });
  world.sim().Spawn("tw-probe", [&] {
    world.sim().WaitUntil([&] { return lport != 0; });
    char local[32];
    const uint32_t addr = b.addr.value;
    std::snprintf(local, sizeof local, "%u.%u.%u.%u:%u", addr >> 24,
                  (addr >> 16) & 255, (addr >> 8) & 255, addr & 255, lport);
    world.sim().WaitUntil(
        [&] { return NetstatState(*b.stack, local) == "TIME_WAIT"; });
    // One second on, b's ACK of a's FIN has crossed the wire and closed a's
    // end.  Mute a so its RSTs for b's answers never reach b.
    world.sim().SleepFor(kNsPerSec);
    ASSERT_FALSE(tap.sent().empty());
    net::TcpHeader last_ack = tap.sent().back();
    ASSERT_EQ(net::kTcpFlagAck, last_ack.flags);
    fault::FaultSpec mute;
    mute.probability_percent = 100;
    mute_env.Arm("nic.tx.drop", mute);
    // Released and quiet, the connection waits as a record, not a pcb.
    EXPECT_EQ(1u, b.trace.registry.Value("net.tcp.time_wait"));
    tap.sent().clear();
    probe(world, a, b, tap, local, lport, last_ack);
    mute_env.DisarmAll();
  });
  world.RunToCompletion();
}

TimeWaitOutcome RunTimeWaitCase(NetConfig b_config,
                                const std::vector<TimeWaitSegment>& inject) {
  TimeWaitOutcome out;
  RunTimeWaitScenario(b_config, [&](World& world, Host& a, Host& b,
                                    WireTap& tap, const std::string& local,
                                    uint16_t lport,
                                    const net::TcpHeader& last_ack) {
    const uint32_t snd_nxt = last_ack.seq;
    const uint32_t rcv_nxt = last_ack.ack;
    trace::CounterSnapshot before = TcpCounters(b);
    const uint64_t start = b.stack->timer_wheel().now();
    for (const TimeWaitSegment& s : inject) {
      uint32_t seq = rcv_nxt + static_cast<uint32_t>(s.seq) +
                     (s.past_window ? last_ack.window : 0u);
      tap.Inject(a.addr, kPort, b.addr, lport, s.flags, seq,
                 snd_nxt + static_cast<uint32_t>(s.ack), 32768, s.len,
                 (s.flags & net::kTcpFlagSyn) != 0);
    }
    world.sim().SleepFor(10 * kNsPerMs);
    out.state = NetstatState(*b.stack, local);
    SimTime give_up = world.sim().clock().Now() + 20 * kNsPerSec;
    world.sim().WaitUntil([&] {
      return NetstatState(*b.stack, local) == "gone" ||
             world.sim().clock().Now() >= give_up;
    });
    out.gone_ticks = b.stack->timer_wheel().now() - start;
    for (const net::TcpHeader& th : tap.sent()) {
      char seg[64];
      int n = std::snprintf(seg, sizeof seg, "%s %d",
                            FormatFlags(th.flags).c_str(),
                            static_cast<int32_t>(th.seq - snd_nxt));
      if ((th.flags & net::kTcpFlagAck) != 0) {
        n += std::snprintf(seg + n, sizeof seg - n, " %d",
                           static_cast<int32_t>(th.ack - rcv_nxt));
      }
      std::snprintf(seg + n, sizeof seg - n, " w%u", th.window);
      out.sent += out.sent.empty() ? "" : "; ";
      out.sent += seg;
    }
    for (const auto& [name, delta] :
         trace::DiffSnapshots(before, TcpCounters(b))) {
      out.counters += out.counters.empty() ? "" : " ";
      out.counters += name + "+" + std::to_string(delta);
    }
  });
  return out;
}

struct TimeWaitGolden {
  const char* name;
  std::vector<TimeWaitSegment> inject;
  TimeWaitOutcome per_frame;  // b bound natively, one input call per frame
  TimeWaitOutcome polled;     // b on kOskitNapi: RX batches
};

TEST(TcpTimeWaitGoldenTest, EverySegmentClassAnswersAsRecorded) {
  using net::kTcpFlagAck;
  using net::kTcpFlagFin;
  using net::kTcpFlagPsh;
  using net::kTcpFlagRst;
  using net::kTcpFlagSyn;
  const TimeWaitGolden goldens[] = {
      {"pure ACK",
       {{kTcpFlagAck, 0, 0, 0, false}},
       {"", "net.pcb.hash.hits+1 net.tcp.in+1", "TIME_WAIT", 31},
       {"",
        "net.pcb.hash.hits+1 net.tcp.batched_outputs+1 net.tcp.in+1 "
        "net.tcp.rx_batches+1",
        "TIME_WAIT", 30}},
      {"ACK of unsent data",
       {{kTcpFlagAck, 0, 1000, 0, false}},
       {"A 0 0 w32768", "net.pcb.hash.hits+1 net.tcp.in+1 net.tcp.out+1",
        "TIME_WAIT", 31},
       {"A 0 0 w61440",
        "net.pcb.hash.hits+1 net.tcp.batched_outputs+1 net.tcp.in+1 "
        "net.tcp.out+1 net.tcp.rx_batches+1",
        "TIME_WAIT", 30}},
      // Not re-ACKed, and 2MSL does not restart: the general path saw the
      // peer's FIN already and skipped FIN processing.
      {"retransmitted FIN",
       {{kTcpFlagFin | kTcpFlagAck, -1, 0, 0, false}},
       {"", "net.pcb.hash.hits+1 net.tcp.in+1", "TIME_WAIT", 31},
       {"",
        "net.pcb.hash.hits+1 net.tcp.batched_outputs+1 net.tcp.in+1 "
        "net.tcp.rx_batches+1",
        "TIME_WAIT", 30}},
      {"wholly old data",
       {{kTcpFlagPsh | kTcpFlagAck, -10, 0, 10, false}},
       {"A 0 0 w32768", "net.pcb.hash.hits+1 net.tcp.in+1 net.tcp.out+1",
        "TIME_WAIT", 31},
       {"A 0 0 w61440",
        "net.pcb.hash.hits+1 net.tcp.batched_outputs+1 net.tcp.in+1 "
        "net.tcp.out+1 net.tcp.rx_batches+1",
        "TIME_WAIT", 30}},
      {"in-window new data",
       {{kTcpFlagPsh | kTcpFlagAck, 0, 0, 10, false}},
       {"R 0 w0", "net.pcb.hash.hits+1 net.tcp.in+1 net.tcp.rst_out+1", "gone",
        1},
       {"R 0 w0", "net.pcb.hash.hits+1 net.tcp.in+1 net.tcp.rst_out+1", "gone",
        0}},
      {"data beyond the window",
       {{kTcpFlagPsh | kTcpFlagAck, 100, 0, 10, true}},
       {"A 0 0 w32768", "net.pcb.hash.hits+1 net.tcp.in+1 net.tcp.out+1",
        "TIME_WAIT", 31},
       {"A 0 0 w61440",
        "net.pcb.hash.hits+1 net.tcp.batched_outputs+1 net.tcp.in+1 "
        "net.tcp.out+1 net.tcp.rx_batches+1",
        "TIME_WAIT", 30}},
      // The RST's ack covers only the bytes inside the window.
      {"data across the window edge, no ACK",
       {{kTcpFlagPsh, -4, 0, 10, true}},
       {"RA -68298 32768 w0",
        "net.pcb.hash.hits+1 net.tcp.in+1 net.tcp.rst_out+1", "gone", 1},
       {"RA -68298 61440 w0",
        "net.pcb.hash.hits+1 net.tcp.in+1 net.tcp.rst_out+1", "gone", 0}},
      {"RST",
       {{kTcpFlagRst, 0, 0, 0, false}},
       {"", "net.pcb.hash.hits+1 net.tcp.in+1", "gone", 1},
       {"", "net.pcb.hash.hits+1 net.tcp.in+1", "gone", 0}},
      {"SYN on the same 4-tuple",
       {{kTcpFlagSyn, 100000, 0, 0, false}},
       {"", "net.pcb.hash.hits+1 net.tcp.in+1", "TIME_WAIT", 31},
       {"",
        "net.pcb.hash.hits+1 net.tcp.batched_outputs+1 net.tcp.in+1 "
        "net.tcp.rx_batches+1",
        "TIME_WAIT", 30}},
      // Polled, both land in one RX batch: the RST withdraws the ACK's
      // deferred output pass, so the batch counts nothing.
      {"ACK of unsent data, then RST",
       {{kTcpFlagAck, 0, 1000, 0, false}, {kTcpFlagRst, 0, 0, 0, false}},
       {"A 0 0 w32768", "net.pcb.hash.hits+2 net.tcp.in+2 net.tcp.out+1",
        "gone", 1},
       {"A 0 0 w61440", "net.pcb.hash.hits+2 net.tcp.in+2 net.tcp.out+1",
        "gone", 0}},
      {"nothing", {}, {"", "", "TIME_WAIT", 31}, {"", "", "TIME_WAIT", 30}},
  };
  for (const TimeWaitGolden& g : goldens) {
    for (int polled = 0; polled < 2; ++polled) {
      SCOPED_TRACE(::testing::Message() << g.name << (polled ? " (polled)" : ""));
      TimeWaitOutcome got = RunTimeWaitCase(
          polled ? NetConfig::kOskitNapi : NetConfig::kNativeBsd, g.inject);
      const TimeWaitOutcome& want = polled ? g.polled : g.per_frame;
      EXPECT_EQ(want.sent, got.sent);
      EXPECT_EQ(want.counters, got.counters);
      EXPECT_EQ(want.state, got.state);
      EXPECT_EQ(want.gone_ticks, got.gone_ticks);
    }
  }
}

TEST(TcpTimeWaitGoldenTest, EphemeralPortIsHeldUntilTwoMslEnds) {
  // With every other ephemeral port bound, the only candidate left is the
  // one the TIME_WAIT entry holds: it is refused to connect and to bind
  // until 2MSL ends, then handed out again.
  uint64_t held_ticks = 0;
  RunTimeWaitScenario(NetConfig::kNativeBsd, [&](World& world, Host& a,
                                                 Host& b, WireTap&,
                                                 const std::string& local,
                                                 uint16_t lport,
                                                 const net::TcpHeader&) {
    std::vector<ComPtr<Socket>> squatters;
    squatters.reserve(16383);
    for (uint32_t port = 49152; port <= 65535; ++port) {
      if (port != lport) {
        ComPtr<Socket> s = b.MakeSocket(SockType::kStream);
        ASSERT_EQ(Error::kOk,
                  s->Bind(SockAddr{kInetAny, static_cast<uint16_t>(port)}));
        squatters.push_back(std::move(s));
      }
    }
    const uint64_t start = b.stack->timer_wheel().now();
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    EXPECT_EQ(Error::kAddrNotAvail, conn->Connect(SockAddr{a.addr, kPort}));
    EXPECT_EQ(1u, b.trace.registry.Value("net.port.exhausted"));
    ComPtr<Socket> bound = b.MakeSocket(SockType::kStream);
    EXPECT_EQ(Error::kAddrInUse, bound->Bind(SockAddr{kInetAny, lport}));
    EXPECT_EQ(Error::kAddrInUse, bound->Bind(SockAddr{b.addr, lport}));

    // Netstat lists every squatter, so look once per wheel tick.
    while (NetstatState(*b.stack, local) != "gone") {
      world.sim().SleepFor(100 * kNsPerMs);
    }
    held_ticks = b.stack->timer_wheel().now() - start;
    EXPECT_EQ(Error::kOk, bound->Bind(SockAddr{b.addr, lport}));
    bound.Reset();
    auto ext = ComPtr<SocketExt>::FromQuery(conn.get());
    ASSERT_TRUE(ext);
    ASSERT_EQ(Error::kOk, ext->SetNonBlocking(true));
    EXPECT_EQ(Error::kWouldBlock, conn->Connect(SockAddr{a.addr, kPort}));
    SockAddr self;
    ASSERT_EQ(Error::kOk, conn->GetSockName(&self));
    EXPECT_EQ(lport, self.port);
    EXPECT_EQ(1u, b.trace.registry.Value("net.port.exhausted"));
  });
  EXPECT_EQ(31u, held_ticks);
}

// ---- TIME_WAIT: memory per entry ----

// The tcp_pcbs= count from Netstat's header line.
size_t NetstatTcpPcbs(net::NetStack& stack) {
  size_t tcp = 0;
  stack.Netstat([&](const char* line) {
    std::sscanf(line, "tcp_pcbs=%zu", &tcp);
  });
  return tcp;
}

// Opens and closes `n` connections from b to a: the client closes first
// when `client_first`, else the server does, so the TIME_WAIT entries land
// on that side.  Returns the live heap bytes per entry while all of them
// wait out 2MSL, over the bytes live once they have all expired.
long TimeWaitBytesPerEntry(int n, bool client_first) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);
  const size_t base_a = NetstatTcpPcbs(*a.stack) + 1;  // and the listener
  const size_t base_b = NetstatTcpPcbs(*b.stack);
  long per_entry = 0;
  bool done = false;
  world.sim().Spawn("tw-mem-server", [&] {
    ComPtr<Socket> listener = a.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(4));
    for (;;) {
      SockAddr peer;
      ComPtr<Socket> conn;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
      if (done) {
        break;  // the client's last connection, made to end this loop
      }
      char buf[8];
      size_t got = 0;
      while (client_first && Ok(conn->Recv(buf, sizeof(buf), &got)) &&
             got > 0) {
      }
    }
  });
  world.sim().Spawn("tw-mem-client", [&] {
    size_t live_base = 0;
    // Round 0 grows every table and pool to its working size; round 1
    // measures against what is live after round 0's entries expired.
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < n; ++i) {
        ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
        ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
        char buf[8];
        size_t got = 0;
        while (!client_first && Ok(conn->Recv(buf, sizeof(buf), &got)) &&
               got > 0) {
        }
      }
      world.sim().WaitUntil([&] {
        return NetstatTcpPcbs(*a.stack) + NetstatTcpPcbs(*b.stack) ==
               base_a + base_b + static_cast<size_t>(n);
      });
      world.sim().SleepFor(100 * kNsPerMs);
      EXPECT_EQ(static_cast<uint64_t>(n),
                a.trace.registry.Value("net.tcp.time_wait") +
                    b.trace.registry.Value("net.tcp.time_wait"));
      if (round == 1) {
        per_entry = static_cast<long>(g_live_heap_bytes.load() - live_base) / n;
      }
      // Past 2MSL every entry has expired.
      world.sim().SleepFor(10 * kNsPerSec);
      EXPECT_EQ(base_a, NetstatTcpPcbs(*a.stack));
      EXPECT_EQ(base_b, NetstatTcpPcbs(*b.stack));
      if (round == 0) {
        live_base = g_live_heap_bytes.load();
      } else {
        EXPECT_EQ(live_base, g_live_heap_bytes.load());
      }
    }
    done = true;
    ComPtr<Socket> last = b.MakeSocket(SockType::kStream);
    EXPECT_EQ(Error::kOk, last->Connect(SockAddr{a.addr, kPort}));
  });
  world.RunToCompletion();
  return per_entry;
}

TEST(TcpTimeWaitMemoryTest, EntryHoldsAtMost192BytesAndAllOfItComesBack) {
  // A client's entry also holds its ephemeral port's index bucket; a
  // server's shares the listening port's.
  long client_side = TimeWaitBytesPerEntry(500, /*client_first=*/true);
  long server_side = TimeWaitBytesPerEntry(500, /*client_first=*/false);
  std::printf("TIME_WAIT heap bytes per entry: client %ld, server %ld\n",
              client_side, server_side);
  EXPECT_LE(client_side, 192);
  EXPECT_LE(server_side, 192);
}

}  // namespace
}  // namespace oskit::testbed
