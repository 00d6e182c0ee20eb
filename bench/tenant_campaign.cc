// Tenant campaign: hostile tenants vs per-principal quotas, end to end.
//
// Topology (VirtualSwitch, one port per host):
//
//   host "tenants" — every tenant lives here and shares one NetStack, one
//     FFS volume (journaled, on MemBlkIo) and one trace registry:
//       * kVictims well-behaved tenants, each doing connect-echo round
//         trips to the target host plus a small create/write/unlink FS leg
//         per round, behind secure wrappers with open budgets;
//       * five seeded hostile tenants — socket spammer, ephemeral-port
//         exhauster, RX mbuf hog, disk filler, selector churner.
//   host "target" — a selector-driven TCP echo service plus a UDP blaster
//     aimed at the mbuf hog's port.
//
// Three runs per seed:
//
//   baseline  victims only; measures the no-attacker connect-to-echo p99.
//   guarded   attackers behind secure wrappers with tight budgets.  The
//             victims' p99 must stay within 3x baseline, every hostile op
//             must come back kQuotaExceeded (never a hang, never a panic:
//             the simulation completing IS the no-hang proof), the hog's
//             overage is shed and counted, and after teardown every
//             principal's sec.quota.charged.* gauge drains to zero.
//   ablation  the same attackers unwrapped.  The port exhauster binds the
//             whole ephemeral range and the disk filler eats the volume, so
//             victims MUST starve (asserted, like the journal-free crash
//             ablation): outbound connects die with kAddrNotAvail and FS
//             writes die with no space — the quota layer is what stood
//             between them.
//
// Emits BENCH_tenant.json with per-seed p99s, denial counts and the
// aggregate verdict.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/fs/ffs.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;
using bench::Percentile;
using secure::Acl;
using secure::Budget;
using secure::NetGuard;
using secure::Principal;
using secure::PrincipalRegistry;
using secure::Resource;

namespace {

constexpr uint16_t kEchoPort = 7777;
constexpr uint16_t kHogPort = 7200;
constexpr size_t kMsgBytes = 16;
constexpr int kVictims = 3;

enum class Mode { kBaseline, kGuarded, kAblation };

struct Options {
  int seeds = 5;
  uint64_t seed_base = 1;
  int rounds = 20;
  const char* json_path = nullptr;
};

struct RunResult {
  std::vector<double> lat_us;   // victim connect-to-echo latencies
  int echoes = 0;               // completed round trips
  int starved_net = 0;          // victim connects/echoes that failed
  int starved_fs = 0;           // victim FS legs that failed
  uint64_t quota_denials = 0;   // kQuotaExceeded returns seen by attackers
  uint64_t spam_denied = 0;     // ... per hostile tenant
  uint64_t port_denied = 0;
  uint64_t fill_denied = 0;
  uint64_t churn_denied = 0;
  uint64_t rx_shed = 0;         // hog overage shed by the stack (counted)
  uint64_t leaked = 0;          // sum of post-teardown charged gauges
  bool completed = false;       // the simulation drained (nobody hung)
};

// One full campaign world.  Builds everything, runs to completion, fills
// `out`.  Every blocking operation lives inside a fiber; sends are paced.
void RunCampaign(Mode mode, uint64_t seed, const Options& opt,
                 RunResult* out) {
  VirtualSwitch::Config sw;
  sw.port.bits_per_second = 1000ull * 1000 * 1000;
  sw.port.propagation_ns = 5 * kNsPerUs;
  World world(sw);
  Host& a = world.AddHost("tenants", NetConfig::kNativeBsd);
  Host& b = world.AddHost("target", NetConfig::kNativeBsd);

  const bool attack = mode != Mode::kBaseline;
  const bool guarded = mode == Mode::kGuarded;

  // ---- the shared protection domain on the tenants host ----
  PrincipalRegistry principals(&a.trace);
  NetGuard guard(&principals);
  a.stack->SetAccounting(&guard);

  // Victims: wrapped, open budgets — the wrappers are always on the
  // victims' path so baseline and guarded runs pay identical overhead.
  Principal* victims[kVictims];
  ComPtr<SocketFactory> victim_net[kVictims];
  for (int v = 0; v < kVictims; ++v) {
    victims[v] = principals.Create("victim" + std::to_string(v));
    victim_net[v] = secure::MakeSecureSocketFactory(
        a.stack->CreateSocketFactory(), victims[v], &guard);
  }

  // One journaled FFS volume shared by every tenant on the host.
  ComPtr<MemBlkIo> disk = MemBlkIo::Create(2 * 1024 * 1024, 512);
  if (!Ok(fs::Mkfs(disk.get()))) {
    std::fprintf(stderr, "mkfs failed\n");
    std::abort();
  }
  ComPtr<FileSystem> raw_fs;
  if (!Ok(fs::Offs::Mount(disk.get(), raw_fs.Receive()))) {
    std::fprintf(stderr, "mount failed\n");
    std::abort();
  }
  secure::InstallJournalAdmission(static_cast<fs::Offs*>(raw_fs.get()),
                                  &principals);
  ComPtr<FileSystem> victim_fs[kVictims];
  for (int v = 0; v < kVictims; ++v) {
    victim_fs[v] = secure::MakeSecureFs(raw_fs, victims[v], &principals);
  }

  // ---- coordination flags ----
  bool listening = false;
  bool attackers_ready = false;  // victims start once saturation is real
  int victims_done = 0;
  int attackers_done = 0;
  const int n_attackers = attack ? 5 : 0;
  bool stop = false;  // echo server + blaster run until this flips

  // ---- target host: selector-driven echo service ----
  world.sim().Spawn("echo-server", [&] {
    ComPtr<Socket> listener = b.MakeSocket(SockType::kStream);
    if (!Ok(listener->Bind(SockAddr{kInetAny, kEchoPort})) ||
        !Ok(listener->Listen(64))) {
      std::fprintf(stderr, "echo server: bind/listen failed\n");
      std::abort();
    }
    ComPtr<NetSelector> sel = b.stack->CreateSelector();
    sel->Add(listener.get(), kNetReadable, /*edge=*/false, nullptr);
    listening = true;
    std::vector<Socket*> conns;
    NetReadyEvent events[32];
    while (!stop) {
      size_t n = 0;
      sel->Wait(events, 32, /*block=*/false, &n);
      if (n == 0) {
        world.sim().SleepFor(kNsPerMs);
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        if (events[i].socket == listener.get()) {
          for (;;) {
            SockAddr peer;
            ComPtr<Socket> child;
            SocketExt* lext = nullptr;
            if (!Ok(QueryFor(listener.get(), &lext))) {
              break;
            }
            lext->SetNonBlocking(true);
            Error aerr = listener->Accept(&peer, child.Receive());
            lext->SetNonBlocking(false);
            lext->Release();
            if (!Ok(aerr)) {
              break;
            }
            SocketExt* ext = nullptr;
            if (Ok(QueryFor(child.get(), &ext))) {
              ext->SetNonBlocking(true);
              ext->Release();
            }
            Socket* raw = child.get();
            raw->AddRef();
            conns.push_back(raw);
            sel->Add(raw, kNetReadable, /*edge=*/false, raw);
          }
          continue;
        }
        Socket* conn = events[i].socket;
        char buf[256];
        for (;;) {
          size_t got = 0;
          Error err = conn->Recv(buf, sizeof(buf), &got);
          if (err == Error::kWouldBlock) {
            break;
          }
          if (!Ok(err) || got == 0) {
            sel->Remove(conn);
            conns.erase(std::find(conns.begin(), conns.end(), conn));
            conn->Release();
            break;
          }
          size_t sent = 0;
          conn->Send(buf, got, &sent);
        }
      }
    }
    for (Socket* conn : conns) {
      sel->Remove(conn);
      conn->Release();
    }
    sel->Remove(listener.get());
  });

  // ---- target host: UDP blaster at the mbuf hog ----
  if (attack) {
    world.sim().Spawn("blaster", [&] {
      ComPtr<Socket> tx = b.MakeSocket(SockType::kDgram);
      char dgram[256] = {};
      while (!stop) {
        size_t sent = 0;
        tx->SendTo(dgram, sizeof(dgram), SockAddr{a.addr, kHogPort}, &sent);
        world.sim().SleepFor(2 * kNsPerMs);  // paced: same-instant bursts
      }                                      // never reach the peer NIC
    });
  }

  // ---- victims ----
  for (int v = 0; v < kVictims; ++v) {
    world.sim().Spawn("victim", [&, v] {
      Rng rng(seed * 6700417 + static_cast<uint64_t>(v) * 131);
      world.sim().WaitUntil([&] { return listening && attackers_ready; });
      ComPtr<Dir> root;
      if (!Ok(victim_fs[v]->GetRoot(root.Receive()))) {
        std::abort();
      }
      for (int r = 0; r < opt.rounds; ++r) {
        // Echo leg: connect-to-echo latency, the victim-visible metric.
        SimTime t0 = world.sim().clock().Now();
        ComPtr<Socket> conn;
        bool ok = Ok(victim_net[v]->Create(SockDomain::kInet,
                                           SockType::kStream,
                                           conn.Receive())) &&
                  Ok(conn->Connect(SockAddr{b.addr, kEchoPort}));
        if (ok) {
          char msg[kMsgBytes];
          std::memset(msg, 'a' + v, sizeof(msg));
          size_t sent = 0;
          ok = Ok(conn->Send(msg, sizeof(msg), &sent)) &&
               sent == sizeof(msg);
          size_t total = 0;
          while (ok && total < kMsgBytes) {
            char buf[64];
            size_t got = 0;
            ok = Ok(conn->Recv(buf, sizeof(buf), &got)) && got > 0;
            total += got;
          }
        }
        conn.Reset();
        if (ok) {
          ++out->echoes;
          out->lat_us.push_back(
              static_cast<double>(world.sim().clock().Now() - t0) /
              kNsPerUs);
        } else {
          ++out->starved_net;
        }

        // FS leg: a small create/write/unlink, sharing the volume with the
        // disk filler.
        std::string name = "v" + std::to_string(v) + "_" + std::to_string(r);
        ComPtr<File> f;
        char blk[1024];
        std::memset(blk, 'f', sizeof(blk));
        size_t n = 0;
        bool fs_ok =
            Ok(root->Create(name.c_str(), 0644, f.Receive())) &&
            Ok(f->Write(blk, 0, sizeof(blk), &n)) && n == sizeof(blk);
        f.Reset();
        if (fs_ok) {
          root->Unlink(name.c_str());
        } else {
          ++out->starved_fs;
        }
        world.sim().SleepFor((1 + rng.Below(4)) * kNsPerMs);
      }
      root.Reset();
      ++victims_done;
    });
  }

  // ---- hostile tenants ----
  if (attack) {
    // Socket spammer: opens sockets and never closes them.
    Principal* spammer = principals.Create(
        "spammer", Budget{}.Set(Resource::kSockets, 8));
    world.sim().Spawn("spammer", [&, spammer] {
      ComPtr<SocketFactory> net =
          guarded ? secure::MakeSecureSocketFactory(
                        a.stack->CreateSocketFactory(), spammer, &guard)
                  : a.stack->CreateSocketFactory();
      std::vector<ComPtr<Socket>> hoard;
      for (int i = 0; i < 64; ++i) {
        ComPtr<Socket> s;
        Error err = net->Create(SockDomain::kInet, SockType::kStream,
                                s.Receive());
        if (err == Error::kQuotaExceeded) {
          ++out->spam_denied;
        } else if (Ok(err)) {
          hoard.push_back(std::move(s));
        }
      }
      world.sim().WaitUntil([&] { return victims_done >= kVictims; });
      hoard.clear();
      ++attackers_done;
    });

    // Port exhauster: binds the whole ephemeral range (49152..65535) so no
    // outbound connection on the host can allocate a port.
    Principal* exhauster = principals.Create(
        "exhauster", Budget{}.Set(Resource::kPorts, 16));
    world.sim().Spawn("exhauster", [&, exhauster] {
      ComPtr<SocketFactory> net =
          guarded ? secure::MakeSecureSocketFactory(
                        a.stack->CreateSocketFactory(), exhauster, &guard)
                  : a.stack->CreateSocketFactory();
      std::vector<ComPtr<Socket>> hoard;
      int denials = 0;
      for (uint32_t port = 49152; port <= 65535; ++port) {
        ComPtr<Socket> s;
        if (!Ok(net->Create(SockDomain::kInet, SockType::kStream,
                            s.Receive()))) {
          break;
        }
        Error err = s->Bind(SockAddr{kInetAny, static_cast<uint16_t>(port)});
        if (err == Error::kQuotaExceeded) {
          ++out->port_denied;
          // A handful of repeats proves the denial is stable, not a hang.
          if (++denials >= 8) {
            break;
          }
          continue;
        }
        if (Ok(err)) {
          hoard.push_back(std::move(s));
        }
      }
      world.sim().WaitUntil([&] { return victims_done >= kVictims; });
      hoard.clear();
      ++attackers_done;
    });

    // Mbuf hog: binds a UDP port the blaster floods and never reads.  The
    // enforcement is mid-flight — over-budget deliveries are shed by the
    // stack and counted, not billed to anyone else.
    Principal* hog = principals.Create(
        "hog", Budget{}.Set(Resource::kMbufBytes, 2048));
    world.sim().Spawn("hog", [&, hog] {
      ComPtr<SocketFactory> net =
          guarded ? secure::MakeSecureSocketFactory(
                        a.stack->CreateSocketFactory(), hog, &guard)
                  : a.stack->CreateSocketFactory();
      ComPtr<Socket> sink;
      if (Ok(net->Create(SockDomain::kInet, SockType::kDgram,
                         sink.Receive()))) {
        sink->Bind(SockAddr{kInetAny, kHogPort});
      }
      world.sim().WaitUntil([&] { return victims_done >= kVictims; });
      sink.Reset();  // parked bytes credit back here
      ++attackers_done;
    });

    // Disk filler: appends 16 KB chunks until something says no.
    Principal* filler = principals.Create(
        "filler", Budget{}.Set(Resource::kFsBlocks, 128));
    world.sim().Spawn("filler", [&, filler] {
      ComPtr<FileSystem> tfs =
          guarded ? secure::MakeSecureFs(raw_fs, filler, &principals)
                  : raw_fs;
      ComPtr<Dir> root;
      if (!Ok(tfs->GetRoot(root.Receive()))) {
        std::abort();
      }
      ComPtr<File> f;
      Error err = root->Create("junk", 0644, f.Receive());
      if (err == Error::kQuotaExceeded) {
        ++out->fill_denied;
      }
      char chunk[16 * 1024];
      std::memset(chunk, 'x', sizeof(chunk));
      uint64_t off = 0;
      while (Ok(err)) {
        size_t n = 0;
        err = f->Write(chunk, off, sizeof(chunk), &n);
        if (err == Error::kQuotaExceeded) {
          ++out->fill_denied;
        }
        if (!Ok(err) || n == 0) {
          break;
        }
        off += n;
      }
      f.Reset();
      world.sim().WaitUntil([&] { return victims_done >= kVictims; });
      root->Unlink("junk");
      root.Reset();
      tfs->Sync();  // journal-txn charges credit at commit
      ++attackers_done;
    });

    // Selector churner: piles registrations onto one selector.
    Principal* churner = principals.Create(
        "churner", Budget{}.Set(Resource::kSelectorRegs, 4));
    world.sim().Spawn("churner", [&, churner] {
      ComPtr<SocketFactory> net =
          guarded ? secure::MakeSecureSocketFactory(
                        a.stack->CreateSocketFactory(), churner, &guard)
                  : a.stack->CreateSocketFactory();
      ComPtr<NetSelector> sel =
          guarded ? secure::MakeSecureSelector(a.stack->CreateSelector(),
                                               churner)
                  : a.stack->CreateSelector();
      std::vector<ComPtr<Socket>> socks;
      std::vector<Socket*> registered;
      for (int i = 0; i < 16; ++i) {
        ComPtr<Socket> s;
        if (!Ok(net->Create(SockDomain::kInet, SockType::kDgram,
                            s.Receive()))) {
          break;
        }
        s->Bind(SockAddr{kInetAny, static_cast<uint16_t>(7300 + i)});
        Error err = sel->Add(s.get(), kNetReadable, /*edge=*/false, nullptr);
        if (err == Error::kQuotaExceeded) {
          ++out->churn_denied;
        } else if (Ok(err)) {
          registered.push_back(s.get());
        }
        socks.push_back(std::move(s));
      }
      world.sim().WaitUntil([&] { return victims_done >= kVictims; });
      for (Socket* s : registered) {
        sel->Remove(s);
      }
      socks.clear();
      sel.Reset();
      ++attackers_done;
    });

  }

  // Victims start once ARP is warm (the one-deep pending queue would turn
  // the first same-instant SYN burst into a 6 s retransmit and poison the
  // baseline) and, under attack, once the hostile load is in place: the
  // exhauster has taken whatever ports it can and the filler is done
  // eating the disk.
  world.sim().Spawn("starter", [&] {
    world.sim().WaitUntil([&] { return listening; });
    SimTime rtt = 0;
    a.stack->Ping(b.addr, kNsPerSec, &rtt);
    if (attack) {
      world.sim().SleepFor(10 * kNsPerMs);
    }
    attackers_ready = true;
  });

  // ---- coordinator: tears the world down once everyone is done ----
  world.sim().Spawn("coordinator", [&] {
    world.sim().WaitUntil([&] {
      return victims_done >= kVictims && attackers_done >= n_attackers;
    });
    world.sim().SleepFor(50 * kNsPerMs);  // let FINs and retransmits drain
    stop = true;
  });

  world.RunToCompletion();
  out->completed = true;

  out->rx_shed = a.stack->counters().rx_quota_shed.value();
  out->quota_denials = out->spam_denied + out->port_denied +
                       out->fill_denied + out->churn_denied;
  raw_fs->Sync();
  for (size_t i = 0; i < principals.size(); ++i) {
    for (size_t r = 0; r < secure::kResourceCount; ++r) {
      out->leaked +=
          principals.at(i)->charged(static_cast<Resource>(r));
    }
  }
  raw_fs->Unmount();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!bench::ParseFlags(argc, argv, {{"--seeds", &opt.seeds},
                                      {"--seed-base", &opt.seed_base},
                                      {"--rounds", &opt.rounds},
                                      {"--json", &opt.json_path}})) {
    return 2;
  }

  std::printf("Tenant campaign: %d victims x %d rounds, 5 hostile tenants, "
              "%d seed(s) from %llu\n\n",
              kVictims, opt.rounds, opt.seeds,
              static_cast<unsigned long long>(opt.seed_base));

  bench::Report report("tenant_campaign", opt.json_path);
  double worst_ratio = 0;
  for (int s = 0; s < opt.seeds; ++s) {
    uint64_t seed = opt.seed_base + static_cast<uint64_t>(s);
    RunResult base{}, guard{}, ablate{};
    RunCampaign(Mode::kBaseline, seed, opt, &base);
    RunCampaign(Mode::kGuarded, seed, opt, &guard);
    RunCampaign(Mode::kAblation, seed, opt, &ablate);

    std::sort(base.lat_us.begin(), base.lat_us.end());
    std::sort(guard.lat_us.begin(), guard.lat_us.end());
    double base_p99 = Percentile(base.lat_us, 0.99);
    double guard_p99 = Percentile(guard.lat_us, 0.99);
    double ratio = base_p99 > 0 ? guard_p99 / base_p99 : 0;
    worst_ratio = std::max(worst_ratio, ratio);

    std::printf("seed %llu: baseline p99 %.1f us | guarded p99 %.1f us "
                "(%.2fx) denials=%llu shed=%llu leaked=%llu | "
                "ablation starved net=%d fs=%d\n",
                static_cast<unsigned long long>(seed), base_p99, guard_p99,
                ratio, static_cast<unsigned long long>(guard.quota_denials),
                static_cast<unsigned long long>(guard.rx_shed),
                static_cast<unsigned long long>(guard.leaked),
                ablate.starved_net, ablate.starved_fs);

    const int expect = kVictims * opt.rounds;
    report.Check("baseline",
                 base.echoes == expect && base.starved_net == 0 &&
                     base.starved_fs == 0,
                 "%d/%d echoes, %d net / %d fs failures", base.echoes, expect,
                 base.starved_net, base.starved_fs);
    // Victims behind quotas never feel the attack.
    report.Check("guarded",
                 guard.echoes == expect && guard.starved_net == 0 &&
                     guard.starved_fs == 0,
                 "%d/%d victim echoes, %d net / %d fs failures", guard.echoes,
                 expect, guard.starved_net, guard.starved_fs);
    // Every attacker was told no, explicitly: kQuotaExceeded, not a hang
    // (completion of the run proves nobody hung) and not a panic.
    report.Check("denials",
                 guard.spam_denied != 0 && guard.port_denied != 0 &&
                     guard.fill_denied != 0 && guard.churn_denied != 0,
                 "spam=%llu port=%llu fill=%llu churn=%llu (all must be > 0)",
                 static_cast<unsigned long long>(guard.spam_denied),
                 static_cast<unsigned long long>(guard.port_denied),
                 static_cast<unsigned long long>(guard.fill_denied),
                 static_cast<unsigned long long>(guard.churn_denied));
    report.Check("shed", guard.rx_shed != 0, "%llu bytes of hog overage shed",
                 static_cast<unsigned long long>(guard.rx_shed));
    report.Check("leak", guard.leaked == 0,
                 "%llu units still charged after teardown",
                 static_cast<unsigned long long>(guard.leaked));
    // The ablation must hurt: no quotas, starved victims, and no denials.
    report.Check("ablation",
                 ablate.starved_net != 0 && ablate.starved_fs != 0 &&
                     ablate.quota_denials == 0,
                 "victims starved net=%d fs=%d, %llu kQuotaExceeded denials "
                 "with wrappers off",
                 ablate.starved_net, ablate.starved_fs,
                 static_cast<unsigned long long>(ablate.quota_denials));
    report.json.Push("seeds", bench::Json()
                                  .Set("seed", seed)
                                  .Set("baseline_p99_us", base_p99)
                                  .Set("guarded_p99_us", guard_p99)
                                  .Set("ratio", ratio)
                                  .Set("quota_denials", guard.quota_denials)
                                  .Set("rx_shed", guard.rx_shed)
                                  .Set("leaked", guard.leaked)
                                  .Set("ablation_starved_net",
                                       ablate.starved_net)
                                  .Set("ablation_starved_fs",
                                       ablate.starved_fs));
  }

  std::printf("\nShape checks:\n");
  report.Check("isolation", worst_ratio <= 3.0,
               "worst guarded/baseline p99 ratio %.2fx (bound 3x)",
               worst_ratio);
  report.json.Set("victims", kVictims)
      .Set("rounds", opt.rounds)
      .Set("p99_bound_factor", 3.0)
      .Set("worst_ratio", worst_ratio)
      .Set("pass", report.passed());
  return report.Finish();
}
