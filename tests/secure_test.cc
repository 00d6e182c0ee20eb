// Multi-tenant isolation (§3.8): per-principal quotas and ACLs enforced by
// the src/secure COM wrappers and the in-stack/in-fs degradation hooks.
//
// Covers: distinguishable denial codes (kQuotaExceeded vs kAddrNotAvail vs
// listen overflow), socket/port/selector/open-file/disk-block budgets, RX
// mbuf charging with counted shed and retransmit recovery (per-principal
// flow control loses no data), journal-transaction admission, the allocator
// and raw-device wrappers, ACL refusals, the kmon `tenants` command, and a
// seeded charge/credit balance property test over mixed TCP+FS workloads —
// after teardown every sec.quota.charged.* gauge must read zero.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/fs/ffs.h"
#include "src/kern/kmon.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

namespace oskit::testbed {
namespace {

using secure::Acl;
using secure::Budget;
using secure::NetGuard;
using secure::Principal;
using secure::PrincipalRegistry;
using secure::Resource;
using secure::ScopedPrincipal;
using secure::SecureAmm;
using secure::SecureLmm;

constexpr uint16_t kPort = 6200;

void ExpectAllBooksZero(PrincipalRegistry& principals) {
  for (size_t i = 0; i < principals.size(); ++i) {
    Principal* p = principals.at(i);
    for (size_t r = 0; r < secure::kResourceCount; ++r) {
      Resource res = static_cast<Resource>(r);
      EXPECT_EQ(0u, p->charged(res))
          << p->name() << " leaked " << secure::ResourceName(res);
    }
  }
}

// ---------------------------------------------------------------------------
// Distinguishable denial codes
// ---------------------------------------------------------------------------

TEST(SecureQuotaTest, QuotaDenialDistinctFromPortExhaustion) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kPorts, 2));
  NetGuard guard(&principals);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);

  // Two bound ports fit the budget; the third is a QUOTA denial: the error
  // and the counter are both distinct from genuine ephemeral exhaustion.
  std::vector<ComPtr<Socket>> socks;
  for (int i = 0; i < 3; ++i) {
    ComPtr<Socket> s;
    ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kDgram,
                                          s.Receive()));
    socks.push_back(std::move(s));
  }
  ASSERT_EQ(Error::kOk,
            socks[0]->Bind(SockAddr{kInetAny, 7001}));
  ASSERT_EQ(Error::kOk,
            socks[1]->Bind(SockAddr{kInetAny, 7002}));
  EXPECT_EQ(Error::kQuotaExceeded,
            socks[2]->Bind(SockAddr{kInetAny, 7003}));

  EXPECT_EQ(1u, tenant->denied(Resource::kPorts));
  EXPECT_EQ(1u, a.trace.registry.Value("sec.quota.denied.ports"));
  // No real port was consumed or counted exhausted by the denial.
  EXPECT_EQ(0u, a.stack->counters().port_exhausted.value());
  EXPECT_EQ(0u, a.trace.registry.Value("net.port.exhausted"));
  // The three codes the satellite pins apart, by name.
  EXPECT_STRNE(ErrorName(Error::kQuotaExceeded), ErrorName(Error::kAddrNotAvail));
  EXPECT_STRNE(ErrorName(Error::kQuotaExceeded), ErrorName(Error::kNoBufs));

  // SendTo is gated the same way: the unbound socket's first datagram
  // would bind an ephemeral port, so at the budget it is refused with
  // nothing on the wire, and once a port is free it charges that one.
  const char dgram[] = "datagram";
  const SockAddr to{b.addr, 7004};
  world.sim().Spawn("sendto", [&] {
    size_t sent = 0;
    EXPECT_EQ(Error::kQuotaExceeded,
              socks[2]->SendTo(dgram, sizeof(dgram), to, &sent));
    EXPECT_EQ(0u, a.stack->counters().udp_out.value());
    EXPECT_EQ(2u, tenant->denied(Resource::kPorts));
    EXPECT_EQ(2u, a.trace.registry.Value("sec.quota.denied.ports"));

    socks[1].Reset();  // closing a bound socket credits its port
    EXPECT_EQ(1u, tenant->charged(Resource::kPorts));
    for (int i = 0; i < 2; ++i) {  // one charge, however many datagrams
      ASSERT_EQ(Error::kOk, socks[2]->SendTo(dgram, sizeof(dgram), to, &sent));
      EXPECT_EQ(sizeof(dgram), sent);
      EXPECT_EQ(2u, tenant->charged(Resource::kPorts));
      world.sim().SleepFor(10 * kNsPerMs);  // resolve and deliver
    }
  });
  world.RunToCompletion();
  EXPECT_EQ(2u, b.stack->counters().udp_in.value());
  EXPECT_EQ(2u, tenant->denied(Resource::kPorts));

  socks[2].Reset();  // closing the sender credits the port its datagram took
  EXPECT_EQ(1u, tenant->charged(Resource::kPorts));
  socks.clear();
  ExpectAllBooksZero(principals);
}

// ---------------------------------------------------------------------------
// Socket and accept budgets
// ---------------------------------------------------------------------------

TEST(SecureQuotaTest, SocketBudgetGatesCreateAndRecovers) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kSockets, 1));
  NetGuard guard(&principals);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);

  ComPtr<Socket> first;
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                        first.Receive()));
  ComPtr<Socket> second;
  EXPECT_EQ(Error::kQuotaExceeded,
            factory->Create(SockDomain::kInet, SockType::kStream,
                            second.Receive()));
  EXPECT_EQ(1u, tenant->denied(Resource::kSockets));
  EXPECT_EQ(1u, tenant->charged(Resource::kSockets));

  // Releasing the held socket credits the unit back; creation works again.
  first.Reset();
  EXPECT_EQ(0u, tenant->charged(Resource::kSockets));
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                        second.Receive()));
  second.Reset();
  ExpectAllBooksZero(principals);
}

TEST(SecureQuotaTest, AcceptChargesChildrenAndSynAdmissionSheds) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  // Budget: the listener plus two children.
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kSockets, 3));
  NetGuard guard(&principals);
  a.stack->SetAccounting(&guard);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);

  bool listening = false;
  int connected = 0;
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener;
    ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                          listener.Receive()));
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(8));
    listening = true;

    // Accept two children: budget is now exactly full (listener + 2).
    ComPtr<Socket> kept[2];
    for (auto& child : kept) {
      SockAddr peer;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, child.Receive()));
    }
    EXPECT_EQ(3u, tenant->charged(Resource::kSockets));

    // A third connection attempt arrives at a full budget: the SYN is shed
    // at admission (counted on the stack AND on the principal), so the
    // attacker-side connect hangs on retransmits instead of ever consuming
    // tenant resources — and the non-blocking accept sees an empty queue.
    world.sim().WaitUntil([&] { return connected >= 2; });
    world.sim().SleepFor(2 * kNsPerSec);  // let the third SYN arrive + retry
    EXPECT_GT(a.stack->counters().tcp_syn_admission_shed.value(), 0u);
    EXPECT_GT(tenant->denied(Resource::kSockets), 0u);
    SocketExt* lext = nullptr;
    ASSERT_EQ(Error::kOk, QueryFor(listener.get(), &lext));
    ASSERT_EQ(Error::kOk, lext->SetNonBlocking(true));
    SockAddr peer;
    ComPtr<Socket> extra;
    EXPECT_EQ(Error::kWouldBlock, listener->Accept(&peer, extra.Receive()));

    // Dropping one child frees headroom: the shed client's retransmitted
    // SYN is admitted and the connection completes after all.
    kept[0].Reset();
    ASSERT_EQ(Error::kOk, lext->SetNonBlocking(false));
    lext->Release();
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, extra.Receive()));
    world.sim().WaitUntil([&] { return connected >= 3; });
  });

  for (int c = 0; c < 3; ++c) {
    world.sim().Spawn("client", [&, c] {
      world.sim().WaitUntil([&] { return listening; });
      // Serialize the handshakes so exactly two land inside the budget.
      world.sim().SleepFor(static_cast<SimTime>(c) * 300 * kNsPerMs);
      ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
      ++connected;
      world.sim().SleepFor(4 * kNsPerSec);  // hold open until the test ends
    });
  }
  world.RunToCompletion();
  EXPECT_GE(a.trace.registry.Value("net.tcp.syn_admission_shed"), 1u);
  ExpectAllBooksZero(principals);
}

// Batch accept admits only what the socket budget has room for.  No SYN
// admission hook is installed, so all five connections queue on the
// listener whatever the budget says.
TEST(SecureQuotaTest, AcceptBatchAdmitsWithinHeadroom) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  // Budget: the listener plus two children.
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kSockets, 3));
  NetGuard guard(&principals);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);

  constexpr int kClients = 5;
  bool listening = false;
  bool done = false;
  int connected = 0;
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener;
    ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                          listener.Receive()));
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(8));
    listening = true;
    world.sim().WaitUntil([&] { return connected == kClients; });
    world.sim().SleepFor(10 * kNsPerMs);  // the clients' final ACKs land
    ComPtr<SocketExt> lext = ComPtr<SocketExt>::FromQuery(listener.get());
    ASSERT_TRUE(lext);

    // Headroom 2: exactly two wrapped children, two units charged.
    SockAddr peers[8];
    Socket* children[8] = {};
    size_t n = 0;
    ASSERT_EQ(Error::kOk, lext->AcceptBatch(peers, children, 8, &n));
    ASSERT_EQ(2u, n);
    EXPECT_EQ(3u, tenant->charged(Resource::kSockets));
    ComPtr<Socket> first(children[0]);
    ComPtr<Socket> second(children[1]);
    EXPECT_EQ(Error::kOk, first->GetPeerName(&peers[0]));  // a wrapper that works

    // No headroom: a counted refusal at once, in zero simulated time.
    uint64_t denied = tenant->denied(Resource::kSockets);
    SimTime before = world.sim().clock().Now();
    n = 99;
    EXPECT_EQ(Error::kQuotaExceeded, lext->AcceptBatch(peers, children, 8, &n));
    EXPECT_EQ(0u, n);
    EXPECT_EQ(before, world.sim().clock().Now());
    EXPECT_EQ(denied + 1, tenant->denied(Resource::kSockets));

    // Releasing a child credits its unit; the next call admits one more.
    first.Reset();
    EXPECT_EQ(2u, tenant->charged(Resource::kSockets));
    ASSERT_EQ(Error::kOk, lext->AcceptBatch(peers, children, 8, &n));
    ASSERT_EQ(1u, n);
    ComPtr<Socket> third(children[0]);
    EXPECT_EQ(3u, tenant->charged(Resource::kSockets));

    // Modify on a wrapped child reaches the inner selector: widening the
    // interest to writable makes the idle connection ready at once, and
    // the event names the wrapper.
    ComPtr<NetSelector> sel =
        secure::MakeSecureSelector(a.stack->CreateSelector(), tenant);
    ASSERT_EQ(Error::kOk, sel->Add(third.get(), kNetReadable, false, &third));
    NetReadyEvent events[4];
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/false, &n));
    EXPECT_EQ(0u, n);
    ASSERT_EQ(Error::kOk,
              sel->Modify(third.get(), kNetReadable | kNetWritable, false));
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/false, &n));
    ASSERT_EQ(1u, n);
    EXPECT_EQ(third.get(), events[0].socket);
    EXPECT_EQ(&third, events[0].token);
    EXPECT_NE(0u, events[0].events & kNetWritable);
    done = true;
  });

  for (int c = 0; c < kClients; ++c) {
    world.sim().Spawn("client", [&] {
      world.sim().WaitUntil([&] { return listening; });
      ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
      ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
      ++connected;
      world.sim().WaitUntil([&] { return done; });
    });
  }
  world.RunToCompletion();
  EXPECT_TRUE(done);
  ExpectAllBooksZero(principals);
}

// ---------------------------------------------------------------------------
// RX mbuf charging: counted shed, no data loss, balanced books
// ---------------------------------------------------------------------------

TEST(SecureQuotaTest, TcpRxShedRecoversByRetransmitWithoutDataLoss) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  // 2 KB of parked RX bytes, against an 8 KB transfer: the stack must shed
  // over-quota segments unACKed and let retransmission pace the sender.
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kMbufBytes, 2048));
  NetGuard guard(&principals);
  a.stack->SetAccounting(&guard);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);

  constexpr size_t kTotal = 8192;
  bool listening = false;
  bool drained = false;
  std::string received;
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener;
    ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                          listener.Receive()));
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    listening = true;
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    char buf[512];
    while (received.size() < kTotal) {
      size_t got = 0;
      ASSERT_EQ(Error::kOk, conn->Recv(buf, sizeof(buf), &got));
      if (got == 0) {
        break;  // premature EOF would fail the size check below
      }
      received.append(buf, got);
      // A slow consumer: quota pressure stays on while the sender pushes.
      world.sim().SleepFor(5 * kNsPerMs);
    }
    drained = true;
  });
  world.sim().Spawn("sender", [&] {
    world.sim().WaitUntil([&] { return listening; });
    ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
    std::string payload(kTotal, '\0');
    for (size_t i = 0; i < kTotal; ++i) {
      payload[i] = static_cast<char>(i * 131 + 7);
    }
    size_t sent = 0;
    ASSERT_EQ(Error::kOk, conn->Send(payload.data(), payload.size(), &sent));
    ASSERT_EQ(kTotal, sent);
    // Hold the connection open until the receiver has drained everything:
    // closing with retransmissions still in flight would abort with a RST
    // and turn flow control into data loss.
    world.sim().WaitUntil([&] { return drained; });
  });
  world.RunToCompletion();

  // Every byte arrived intact despite the shed: per-principal flow control,
  // not data loss.
  ASSERT_EQ(kTotal, received.size());
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(static_cast<char>(i * 131 + 7), received[i])
        << "corrupt at offset " << i;
  }
  EXPECT_GT(a.stack->counters().rx_quota_shed.value(), 0u);
  EXPECT_EQ(a.trace.registry.Value("net.rx.quota_shed"),
            a.stack->counters().rx_quota_shed.value());
  EXPECT_GT(b.stack->counters().tcp_retransmits.value(), 0u);
  ExpectAllBooksZero(principals);
}

TEST(SecureQuotaTest, UdpRxShedDropsOverBudgetDatagramsAndBalances) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kMbufBytes, 1024));
  NetGuard guard(&principals);
  a.stack->SetAccounting(&guard);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);

  ComPtr<Socket> rx;
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kDgram,
                                        rx.Receive()));
  ASSERT_EQ(Error::kOk, rx->Bind(SockAddr{kInetAny, 7100}));

  bool blast_done = false;
  world.sim().Spawn("blast", [&] {
    ComPtr<Socket> tx = b.MakeSocket(SockType::kDgram);
    char dgram[256] = {};
    for (int i = 0; i < 16; ++i) {  // 4 KB at the wire vs a 1 KB budget
      size_t sent = 0;
      ASSERT_EQ(Error::kOk,
                tx->SendTo(dgram, sizeof(dgram), SockAddr{a.addr, 7100}, &sent));
      world.sim().SleepFor(kNsPerMs);  // pace: one frame per wire slot
    }
    blast_done = true;
  });
  world.sim().Spawn("audit", [&] {
    world.sim().WaitUntil([&] { return blast_done; });
    world.sim().SleepFor(50 * kNsPerMs);  // let the last datagram land

    // The books hold exactly the admitted datagrams; the rest were shed
    // with the counter as the audit trail (UDP drops are UDP drops).
    EXPECT_GT(a.stack->counters().rx_quota_shed.value(), 0u);
    EXPECT_LE(tenant->charged(Resource::kMbufBytes), 1024u);
    EXPECT_GT(tenant->charged(Resource::kMbufBytes), 0u);
    EXPECT_GT(tenant->denied(Resource::kMbufBytes), 0u);

    // Draining credits byte-for-byte.
    char buf[256];
    SockAddr from;
    size_t got = 0;
    ASSERT_EQ(Error::kOk, rx->RecvFrom(buf, sizeof(buf), &from, &got));
    EXPECT_EQ(256u, got);
  });
  world.RunToCompletion();

  // Teardown credits whatever was still parked.
  rx.Reset();
  ExpectAllBooksZero(principals);
}

// ---------------------------------------------------------------------------
// Filesystem budgets and journal admission
// ---------------------------------------------------------------------------

TEST(SecureQuotaTest, DiskFillerDeniedAtBlockBudgetAndUnlinkCredits) {
  trace::TraceEnv tenv;
  PrincipalRegistry principals(&tenv);
  // 64 st_blocks units = 32 KB of owned disk.
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kFsBlocks, 64));

  ComPtr<MemBlkIo> disk = MemBlkIo::Create(8 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> inner;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, inner.Receive()));
  ComPtr<FileSystem> tfs = secure::MakeSecureFs(inner, tenant, &principals);

  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, tfs->GetRoot(root.Receive()));
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root->Create("hog", 0644, f.Receive()));

  std::string chunk(8192, 'x');
  size_t n = 0;
  ASSERT_EQ(Error::kOk, f->Write(chunk.data(), 0, chunk.size(), &n));
  ASSERT_EQ(chunk.size(), n);
  uint64_t charged_after_first = tenant->charged(Resource::kFsBlocks);
  EXPECT_GE(charged_after_first, 8192u / 512u);

  // Growing past the budget is denied BEFORE the filesystem mutates: the
  // write fails whole, with the quota error and a counted denial.
  n = 0;
  EXPECT_EQ(Error::kQuotaExceeded,
            f->Write(chunk.data(), 64 * 512, chunk.size(), &n));
  EXPECT_EQ(0u, n);
  EXPECT_GT(tenant->denied(Resource::kFsBlocks), 0u);
  EXPECT_EQ(charged_after_first, tenant->charged(Resource::kFsBlocks));

  // Unlinking credits everything the tenant charged for the inode.
  f.Reset();
  ASSERT_EQ(Error::kOk, root->Unlink("hog"));
  EXPECT_EQ(0u, tenant->charged(Resource::kFsBlocks));

  root.Reset();
  ExpectAllBooksZero(principals);
  ASSERT_EQ(Error::kOk, tfs->Unmount());
}

TEST(SecureQuotaTest, JournalTxnAdmissionBillsCurrentPrincipal) {
  trace::TraceEnv tenv;
  PrincipalRegistry principals(&tenv);
  Principal* blocked =
      principals.Create("blocked", Budget{}.Set(Resource::kJournalTxns, 0));
  Principal* open = principals.Create("open");

  ComPtr<MemBlkIo> disk = MemBlkIo::Create(8 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> inner;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, inner.Receive()));
  auto* offs = static_cast<fs::Offs*>(inner.get());
  ASSERT_TRUE(offs->journaled());
  secure::InstallJournalAdmission(offs, &principals);

  ComPtr<FileSystem> blocked_fs =
      secure::MakeSecureFs(inner, blocked, &principals);
  ComPtr<FileSystem> open_fs = secure::MakeSecureFs(inner, open, &principals);

  // The zero-budget tenant's metadata op is refused at journal admission —
  // before any intent block joins the transaction.
  ComPtr<Dir> broot;
  ASSERT_EQ(Error::kOk, blocked_fs->GetRoot(broot.Receive()));
  ComPtr<File> bf;
  EXPECT_EQ(Error::kQuotaExceeded, broot->Create("nope", 0644, bf.Receive()));
  EXPECT_EQ(1u, blocked->denied(Resource::kJournalTxns));

  // The open tenant sails through, and the commit credits its charge.
  ComPtr<Dir> oroot;
  ASSERT_EQ(Error::kOk, open_fs->GetRoot(oroot.Receive()));
  ComPtr<File> of;
  ASSERT_EQ(Error::kOk, oroot->Create("yes", 0644, of.Receive()));
  ASSERT_EQ(Error::kOk, open_fs->Sync());
  EXPECT_EQ(0u, open->charged(Resource::kJournalTxns));
  of.Reset();
  ASSERT_EQ(Error::kOk, oroot->Unlink("yes"));  // credit the disk blocks
  ASSERT_EQ(Error::kOk, open_fs->Sync());

  // An unattributed caller (no ScopedPrincipal bracket) is never billed.
  ComPtr<Dir> raw_root;
  ASSERT_EQ(Error::kOk, inner->GetRoot(raw_root.Receive()));
  ComPtr<File> rf;
  ASSERT_EQ(Error::kOk, raw_root->Create("unbilled", 0644, rf.Receive()));

  bf.Reset();
  rf.Reset();
  oroot.Reset();
  broot.Reset();
  raw_root.Reset();
  ASSERT_EQ(Error::kOk, inner->Unmount());
  ExpectAllBooksZero(principals);
}

// ---------------------------------------------------------------------------
// Allocator and raw-device wrappers, ACLs
// ---------------------------------------------------------------------------

TEST(SecureQuotaTest, AllocatorWrappersChargeAndDeny) {
  trace::TraceEnv tenv;
  PrincipalRegistry principals(&tenv);
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kMemBytes, 4096));

  alignas(16) static uint8_t arena[64 * 1024];
  Lmm lmm;
  LmmRegion region;
  lmm.AddRegion(&region, arena, sizeof(arena), 0, 0);
  lmm.AddFree(arena, sizeof(arena));

  SecureLmm slmm(&lmm, tenant);
  void* block = slmm.Alloc(2048, 0);
  ASSERT_NE(nullptr, block);
  EXPECT_EQ(2048u, tenant->charged(Resource::kMemBytes));
  // Quota denial: nullptr like exhaustion, but counted — and nothing was
  // taken from the pool.
  size_t avail_before = lmm.Avail(0);
  EXPECT_EQ(nullptr, slmm.Alloc(4096, 0));
  EXPECT_EQ(avail_before, lmm.Avail(0));
  EXPECT_EQ(1u, tenant->denied(Resource::kMemBytes));
  slmm.Free(block, 2048);
  EXPECT_EQ(0u, tenant->charged(Resource::kMemBytes));

  Amm amm(0, 1 << 20);
  SecureAmm samm(&amm, tenant);
  uint64_t addr = 0;
  ASSERT_EQ(Error::kOk, samm.Allocate(&addr, 4096, Amm::kAllocated));
  EXPECT_EQ(4096u, tenant->charged(Resource::kMemBytes));
  uint64_t addr2 = 0;
  EXPECT_EQ(Error::kQuotaExceeded, samm.Allocate(&addr2, 4096, Amm::kAllocated));
  ASSERT_EQ(Error::kOk, samm.Deallocate(addr, 4096));
  ExpectAllBooksZero(principals);
}

TEST(SecureQuotaTest, BufIoWrapperGatesWritesAndChargesMappings) {
  trace::TraceEnv tenv;
  PrincipalRegistry principals(&tenv);
  Acl readonly;
  readonly.allow_blkio_write = false;
  Principal* reader = principals.Create("reader", Budget{}, readonly);
  Principal* writer = principals.Create(
      "writer", Budget{}.Set(Resource::kMemBytes, 1024));

  ComPtr<MemBlkIo> disk = MemBlkIo::Create(64 * 1024, 512);
  ComPtr<BlkIo> read_only =
      secure::MakeSecureBufIo(ComPtr<BlkIo>::Retain(disk.get()), reader);

  char buf[512] = {};
  size_t n = 0;
  EXPECT_EQ(Error::kOk, read_only->Read(buf, 0, sizeof(buf), &n));
  EXPECT_EQ(Error::kAccess, read_only->Write(buf, 0, sizeof(buf), &n));
  EXPECT_GT(reader->denied_total(), 0u);
  read_only.Reset();

  ComPtr<BlkIo> wrapped =
      secure::MakeSecureBufIo(ComPtr<BlkIo>::Retain(disk.get()), writer);
  BufIo* bufio = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(wrapped.get(), &bufio));
  void* mapped = nullptr;
  ASSERT_EQ(Error::kOk, bufio->Map(&mapped, 0, 512));
  EXPECT_EQ(512u, writer->charged(Resource::kMemBytes));
  void* mapped2 = nullptr;
  EXPECT_EQ(Error::kQuotaExceeded, bufio->Map(&mapped2, 0, 1024));
  ASSERT_EQ(Error::kOk, bufio->Unmap(mapped, 0, 512));
  EXPECT_EQ(0u, writer->charged(Resource::kMemBytes));
  bufio->Release();
  wrapped.Reset();
  ExpectAllBooksZero(principals);
}

// A mapping is a writable window into the device, so a principal that may
// not write may not map: otherwise it stores through the pointer and every
// later Read sees its bytes.
TEST(SecureQuotaTest, ReadOnlyPrincipalCannotWriteThroughAMapping) {
  trace::TraceEnv tenv;
  PrincipalRegistry principals(&tenv);
  Acl readonly;
  readonly.allow_blkio_write = false;
  Principal* reader = principals.Create("reader", Budget{}, readonly);

  ComPtr<MemBlkIo> disk = MemBlkIo::Create(64 * 1024, 512);
  ComPtr<BlkIo> wrapped =
      secure::MakeSecureBufIo(ComPtr<BlkIo>::Retain(disk.get()), reader);
  BufIo* bufio = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(wrapped.get(), &bufio));
  void* mapped = nullptr;
  Error err = bufio->Map(&mapped, 0, 512);
  if (Ok(err)) {
    std::memset(mapped, 0xa5, 512);
    bufio->Unmap(mapped, 0, 512);
  }
  EXPECT_EQ(Error::kAccess, err);
  EXPECT_EQ(nullptr, mapped);
  EXPECT_GT(reader->denied(Resource::kMemBytes), 0u);

  char buf[512];
  size_t n = 0;
  ASSERT_EQ(Error::kOk, wrapped->Read(buf, 0, sizeof(buf), &n));
  EXPECT_EQ(std::string(sizeof(buf), '\0'), std::string(buf, sizeof(buf)));
  bufio->Release();
  wrapped.Reset();
  ExpectAllBooksZero(principals);
}

TEST(SecureQuotaTest, AclRefusalsReturnAccessNotQuota) {
  trace::TraceEnv tenv;
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  Acl no_net;
  no_net.allow_net = false;
  Principal* walled = principals.Create("walled", Budget{}, no_net);
  NetGuard guard(&principals);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), walled, &guard);
  ComPtr<Socket> s;
  EXPECT_EQ(Error::kAccess,
            factory->Create(SockDomain::kInet, SockType::kStream, s.Receive()));
  EXPECT_EQ(0u, walled->charged(Resource::kSockets));
  EXPECT_GT(walled->denied(Resource::kSockets), 0u);

  Acl no_write;
  no_write.allow_fs_write = false;
  Principal* ro = principals.Create("readonly", Budget{}, no_write);
  ComPtr<MemBlkIo> disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> inner;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, inner.Receive()));
  ComPtr<FileSystem> tfs = secure::MakeSecureFs(inner, ro, &principals);
  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, tfs->GetRoot(root.Receive()));
  ComPtr<File> f;
  EXPECT_EQ(Error::kAccess, root->Create("nope", 0644, f.Receive()));
  EXPECT_EQ(Error::kAccess, root->Mkdir("nodir", 0755));
  EXPECT_EQ(Error::kAccess, root->Unlink("anything"));
  root.Reset();
  // Unmount is administrative: denied for the read-only tenant as well.
  EXPECT_EQ(Error::kAccess, tfs->Unmount());
  ExpectAllBooksZero(principals);
  ASSERT_EQ(Error::kOk, inner->Unmount());
}

// ---------------------------------------------------------------------------
// Selector registrations
// ---------------------------------------------------------------------------

TEST(SecureQuotaTest, SelectorRegistrationBudgetAndEventRewriting) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  Principal* tenant =
      principals.Create("tenant", Budget{}.Set(Resource::kSelectorRegs, 1));
  NetGuard guard(&principals);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);

  world.sim().Spawn("driver", [&] {
    ComPtr<Socket> rx;
    ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kDgram,
                                          rx.Receive()));
    ASSERT_EQ(Error::kOk, rx->Bind(SockAddr{kInetAny, 7200}));
    ComPtr<Socket> rx2;
    ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kDgram,
                                          rx2.Receive()));
    ASSERT_EQ(Error::kOk, rx2->Bind(SockAddr{kInetAny, 7201}));

    ComPtr<NetSelector> sel =
        secure::MakeSecureSelector(a.stack->CreateSelector(), tenant);
    ASSERT_EQ(Error::kOk,
              sel->Add(rx.get(), kNetReadable, /*edge=*/false, /*token=*/&rx));
    // Second registration: over the one-registration budget.
    EXPECT_EQ(Error::kQuotaExceeded,
              sel->Add(rx2.get(), kNetReadable, false, nullptr));
    EXPECT_EQ(1u, tenant->denied(Resource::kSelectorRegs));

    ComPtr<Socket> tx = b.MakeSocket(SockType::kDgram);
    size_t sent = 0;
    ASSERT_EQ(Error::kOk, tx->SendTo("hi", 2, SockAddr{a.addr, 7200}, &sent));

    // The harvested event references the WRAPPER the tenant registered,
    // never the inner socket.
    NetReadyEvent events[4];
    size_t n = 0;
    ASSERT_EQ(Error::kOk, sel->Wait(events, 4, /*block=*/true, &n));
    ASSERT_EQ(1u, n);
    EXPECT_EQ(rx.get(), events[0].socket);
    EXPECT_EQ(&rx, events[0].token);

    // Removing credits; the freed slot admits the second socket.
    ASSERT_EQ(Error::kOk, sel->Remove(rx.get()));
    EXPECT_EQ(0u, tenant->charged(Resource::kSelectorRegs));
    ASSERT_EQ(Error::kOk, sel->Add(rx2.get(), kNetReadable, false, nullptr));

    // A registered socket dying drops its registration and charge.
    rx2.Reset();
    EXPECT_EQ(0u, tenant->charged(Resource::kSelectorRegs));

    char buf[8];
    SockAddr from;
    size_t got = 0;
    ASSERT_EQ(Error::kOk, rx->RecvFrom(buf, sizeof(buf), &from, &got));
  });
  world.RunToCompletion();
  ExpectAllBooksZero(principals);
}

// ---------------------------------------------------------------------------
// kmon `tenants`
// ---------------------------------------------------------------------------

TEST(SecureQuotaTest, KmonTenantsCommandDumpsRegistry) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  Principal* noisy =
      principals.Create("noisy", Budget{}.Set(Resource::kSockets, 2));
  principals.Create("quiet");
  NetGuard guard(&principals);
  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), noisy, &guard);
  std::vector<ComPtr<Socket>> held;
  for (int i = 0; i < 3; ++i) {
    ComPtr<Socket> s;
    Error err =
        factory->Create(SockDomain::kInet, SockType::kStream, s.Receive());
    if (Ok(err)) {
      held.push_back(std::move(s));
    }
  }
  EXPECT_EQ(2u, noisy->charged(Resource::kSockets));
  EXPECT_EQ(1u, noisy->denied(Resource::kSockets));

  KernelMonitor kmon(a.kernel.get(), &a.kernel->console());
  kmon.SetTenantsSource([&](const std::function<void(const char*)>& emit) {
    principals.Tenants(emit);
  });

  auto type = [&](const std::string& line) {
    a.machine->console_uart().InjectRx(line.data(), line.size());
    a.machine->console_uart().InjectRx("\r", 1);
  };
  type("tenants");
  type("c");
  world.sim().Spawn("kmon", [&] {
    TrapFrame frame;
    kmon.Enter(frame);
  });
  world.RunToCompletion();

  std::string out = a.machine->console_uart().TakeOutput();
  EXPECT_NE(std::string::npos, out.find("tenants: 2 principal(s)"));
  EXPECT_NE(std::string::npos, out.find("noisy"));
  EXPECT_NE(std::string::npos, out.find("quiet"));
  EXPECT_NE(std::string::npos, out.find("sockets"));
  EXPECT_NE(std::string::npos, out.find("charged=2"));
  held.clear();
}

// ---------------------------------------------------------------------------
// Seeded charge/credit balance property test
// ---------------------------------------------------------------------------

// Mixed TCP + FS + selector + allocator workload under wrappers, randomized
// per seed: whatever the op mix does, after releasing every object the
// books must read zero — every charge found its credit.
TEST(SecureBalancePropertyTest, MixedWorkloadBooksDrainToZero) {
  trace::TraceEnv tenv;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);

    World world;
    Host& a = world.AddHost("a", NetConfig::kNativeBsd);
    Host& b = world.AddHost("b", NetConfig::kNativeBsd);

    PrincipalRegistry principals(&a.trace);
    // Tight-ish budgets so denial paths get exercised too.
    Budget budget = Budget{}
                        .Set(Resource::kSockets, 4 + rng.Below(4))
                        .Set(Resource::kPorts, 4 + rng.Below(4))
                        .Set(Resource::kMbufBytes, 2048 + rng.Below(2048))
                        .Set(Resource::kFsBlocks, 64 + rng.Below(64))
                        .Set(Resource::kOpenFiles, 4 + rng.Below(4))
                        .Set(Resource::kSelectorRegs, 2 + rng.Below(2));
    Principal* tenant = principals.Create("tenant", budget);
    NetGuard guard(&principals);
    a.stack->SetAccounting(&guard);
    ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
        a.stack->CreateSocketFactory(), tenant, &guard);

    ComPtr<MemBlkIo> disk = MemBlkIo::Create(8 * 1024 * 1024, 512);
    ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
    ComPtr<FileSystem> inner_fs;
    ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, inner_fs.Receive()));
    secure::InstallJournalAdmission(static_cast<fs::Offs*>(inner_fs.get()),
                                    &principals);
    ComPtr<FileSystem> tfs =
        secure::MakeSecureFs(inner_fs, tenant, &principals);

    world.sim().Spawn("workload", [&] {
      // --- network leg: an echo round trip plus a datagram burst ---
      ComPtr<Socket> listener;
      ASSERT_EQ(Error::kOk, factory->Create(
                                SockDomain::kInet, SockType::kStream,
                                listener.Receive()));
      ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
      ASSERT_EQ(Error::kOk, listener->Listen(4));

      ComPtr<NetSelector> sel =
          secure::MakeSecureSelector(a.stack->CreateSelector(), tenant);
      sel->Add(listener.get(), kNetReadable, false, nullptr);

      bool peer_done = false;
      world.sim().Spawn("peer", [&] {
        ComPtr<Socket> conn = b.MakeSocket(SockType::kStream);
        ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{a.addr, kPort}));
        std::string msg(64 + rng.Below(512), 'm');
        size_t n = 0;
        ASSERT_EQ(Error::kOk, conn->Send(msg.data(), msg.size(), &n));
        char buf[1024];
        size_t got_total = 0;
        while (got_total < msg.size() &&
               Ok(conn->Recv(buf, sizeof(buf), &n)) && n > 0) {
          got_total += n;
        }
        EXPECT_EQ(msg.size(), got_total);
        peer_done = true;
      });

      SockAddr peer;
      ComPtr<Socket> conn;
      ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
      char buf[1024];
      size_t got = 0;
      size_t echoed = 0;
      while (!peer_done) {
        Error err = conn->Recv(buf, sizeof(buf), &got);
        if (!Ok(err) || got == 0) {
          break;
        }
        size_t sent = 0;
        ASSERT_EQ(Error::kOk, conn->Send(buf, got, &sent));
        echoed += sent;
        if (rng.Percent(30)) {
          world.sim().SleepFor(rng.Below(10) * kNsPerMs);
        }
      }

      // --- fs leg: create/write/maybe-deny/unlink ---
      ComPtr<Dir> root;
      ASSERT_EQ(Error::kOk, tfs->GetRoot(root.Receive()));
      int files = static_cast<int>(1 + rng.Below(3));
      for (int i = 0; i < files; ++i) {
        std::string name = "f" + std::to_string(i);
        ComPtr<File> f;
        Error err = root->Create(name.c_str(), 0644, f.Receive());
        if (!Ok(err)) {
          continue;  // open-file or journal budget hit: still balanced
        }
        std::string data(rng.Below(32768), 'd');
        size_t n = 0;
        f->Write(data.data(), 0, data.size(), &n);  // may be quota-denied
        if (rng.Percent(50)) {
          f->SetSize(rng.Below(1024));
        }
        f.Reset();
        if (rng.Percent(70)) {
          root->Unlink(name.c_str());
        }
      }
      ASSERT_EQ(Error::kOk, tfs->Sync());
      root.Reset();

      sel.Reset();
      conn.Reset();
      listener.Reset();
    });
    world.RunToCompletion();

    // The single invariant that makes quotas trustworthy: teardown returns
    // every charge.  (Files left on disk were deliberately not unlinked in
    // ~30% of cases — credit those by unlinking now, through the wrapper.)
    ComPtr<Dir> root;
    ASSERT_EQ(Error::kOk, tfs->GetRoot(root.Receive()));
    for (int i = 0; i < 3; ++i) {
      root->Unlink(("f" + std::to_string(i)).c_str());
    }
    root.Reset();
    ASSERT_EQ(Error::kOk, tfs->Sync());  // settle journal-txn charges
    ExpectAllBooksZero(principals);
    EXPECT_EQ(0u, a.trace.registry.Value("sec.quota.charged.mbuf_bytes"));
    EXPECT_EQ(0u, a.trace.registry.Value("sec.quota.charged.sockets"));
    ASSERT_EQ(Error::kOk, tfs->Unmount());
  }
}

}  // namespace
}  // namespace oskit::testbed
