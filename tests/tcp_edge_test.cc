// TCP state-machine edge cases on the BSD-idiom stack: teardown variants,
// half-close semantics, zero-window persist probing, backlog limits, RST
// behaviour, and the §6.2.10 clean-exit fix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/libc/posix.h"
#include "src/testbed/testbed.h"

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

}  // namespace
}  // namespace oskit::testbed
