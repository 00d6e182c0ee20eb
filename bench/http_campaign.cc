// HTTP campaign: the flagship HTTP/1.1 macro-workload, end to end.
//
// One simulated PC runs the http::Server over journaled FFS on a real IDE
// disk (encapsulated Linux driver, so cold reads cost seek + transfer time
// and the fs_read span accrues honest simulated nanoseconds), on the
// COM-glue + scatter-gather + NAPI network path.  Four loadgen hosts on the
// VirtualSwitch drive a mixed open-loop load:
//
//   holders     keep-alive connections doing sequential zipf-popular GETs,
//               then HELD open until every host finishes — the established
//               peak proves the >= 1000 concurrency floor;
//   churn       one-shot Connection: close connections arriving with
//               exponential inter-arrival gaps (a quarter hit the KVM
//               /dyn/add servlet);
//   pipeliners  bursts of pipelined requests in a single segment;
//   slow        slow-reader fibers that pipeline three large files and
//               drain the 384 KB of responses a few KB per millisecond —
//               the server's kOutHighWater backpressure must engage
//               (http.read_paused), never a stall, never unbounded staging.
//
// Phases: the full-scale main run, a small same-scale ablation trio
// (baseline / --no-sg via WithoutGatherDma() / no-NAPI via NetConfig::kOskit)
// for the EXPERIMENTS table, and a secure phase where a slow-loris tenant
// behind src/secure quotas gets kQuotaExceeded instead of starving the
// victim tenants sharing its host.
//
// Emits BENCH_http.json: throughput, p50/p99/p999 tail latency, the span
// attribution table (http.span.*), ablation rows, and the loris verdict.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/dev/linux/linux_ide.h"
#include "src/diskpart/diskpart.h"
#include "src/fs/ffs.h"
#include "src/http/http.h"
#include "src/http/server.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"
#include "src/vm/kvm.h"

using namespace oskit;
using namespace oskit::testbed;
using bench::Percentile;
using bench::QueryExt;
using secure::Budget;
using secure::NetGuard;
using secure::Principal;
using secure::PrincipalRegistry;
using secure::Resource;

namespace {

constexpr uint16_t kPort = 8080;
constexpr int kFileCount = 48;
constexpr size_t kBigBytes = 128 * 1024;
constexpr int kSlowPipeline = 3;  // big-file responses per slow reader

size_t FileSizeOf(int i) { return size_t{512} << (i % 8); }  // 512 B .. 64 KB

std::string FilePath(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/files/f%02d.bin", i);
  return buf;
}

// Zipf(s=1.0) file popularity over the catalog.
struct Zipf {
  std::vector<double> cdf;
  explicit Zipf(int n) {
    cdf.resize(n);
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf[i] = total;
    }
    for (int i = 0; i < n; ++i) {
      cdf[i] /= total;
    }
  }
  int Sample(Rng& rng) const {
    double u = rng.Unit();
    return static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
};

// Captures kSysPutInt output from the servlet (netcomputer v2's miniature).
class ConsoleSys : public vm::SysHandler {
 public:
  explicit ConsoleSys(std::string* out) : out_(out) {}
  Error Syscall(uint16_t number, vm::Vm& vm, int thread) override {
    if (number == vm::kSysPutInt) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(vm.Pop(thread)));
      out_->append(buf);
      return Error::kOk;
    }
    return Error::kNotImpl;
  }

 private:
  std::string* out_;
};

constexpr char kDynProgram[] =
    "gload 0\n"
    "gload 1\n"
    "add\n"
    "sys 2\n"
    "halt\n";

int64_t QueryArg(const std::string& target, const std::string& key) {
  size_t q = target.find('?');
  if (q == std::string::npos) {
    return 0;
  }
  std::string query = target.substr(q + 1);
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    size_t end = amp == std::string::npos ? query.size() : amp;
    size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        query.compare(pos, eq - pos, key) == 0) {
      return std::strtoll(query.c_str() + eq + 1, nullptr, 10);
    }
    pos = end + 1;
  }
  return 0;
}

// Blocking request helper: sends `wire`, parses `expected` responses.
// Returns false (instead of asserting) so callers can count failures.
bool Exchange(Socket* sock, const std::string& wire, size_t expected,
              std::vector<http::Response>* out) {
  size_t n = 0;
  if (!Ok(sock->Send(wire.data(), wire.size(), &n)) || n != wire.size()) {
    return false;
  }
  http::ResponseParser parser;
  char buf[4096];
  while (out->size() < expected) {
    Error err = sock->Recv(buf, sizeof(buf), &n);
    if (!Ok(err) || n == 0) {
      return false;
    }
    parser.Feed(buf, n);
    if (parser.status() == http::ParseStatus::kError) {
      return false;
    }
    while (parser.HasResponse()) {
      out->push_back(parser.TakeResponse());
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// One measured phase: a full world, one server host, N loadgen hosts.

struct PhaseOptions {
  const char* name = "main";
  NetConfig server_net = NetConfig::kOskitNapi;
  bool force_flatten = false;  // ablation: driver without gather DMA (no SG)
  int hosts = 4;
  int holders = 260;          // per host, held open to the barrier
  int holder_requests = 3;    // sequential GETs per holder
  int churn = 90;             // per host, Connection: close one-shots
  int pipeliners = 8;         // per host
  int pipe_depth = 4;         // requests per pipelined burst
  int slow = 6;               // per host, slow-reader fibers
  uint64_t mean_arrival_us = 200;
  uint64_t seed = 0x8177bca3;
};

struct PhaseResult {
  // Client-side truth.
  int expected = 0;     // responses the load plan calls for
  int completed = 0;    // responses received AND validated
  int failures = 0;     // connect/send/validation failures
  double throughput_rps = 0;
  double p50 = 0, p99 = 0, p999 = 0, pmax = 0;
  // Server-side counters.
  uint64_t established_peak = 0;
  uint64_t listen_overflows = 0;
  uint64_t requests = 0, responses = 0, pipelined = 0;
  uint64_t read_paused = 0, bytes_out = 0;
  uint64_t sg_frames = 0, tx_copied_bytes = 0;
  uint64_t napi_polls = 0, rx_frames = 0, rx_irqs = 0;
  // The span attribution table (name -> value), http.span.* only.
  std::vector<std::pair<std::string, uint64_t>> attribution;
};

// Per-connection client state, driven off the loadgen host's selector.
struct CConn {
  ComPtr<Socket> sock;
  http::ResponseParser parser;
  enum Mode { kHolder, kChurn, kPipe } mode = kHolder;
  int rounds_left = 0;           // holder: request rounds still to stage
  int await = 0;                 // responses outstanding on the wire
  std::deque<SimTime> sent_ts;   // staging time per outstanding request
  std::deque<size_t> expect;     // expected body length per outstanding
  bool connected = false;
  bool done = false;
  bool failed = false;
};

struct LoadHost {
  std::vector<CConn> conns;
  int done = 0;
  int slow_done = 0;
  bool warm = false;  // ARP warmed, slow readers may start
};

void RunHttpPhase(const PhaseOptions& opt, PhaseResult* r) {
  VirtualSwitch::Config sw;
  sw.port.bits_per_second = 1000ull * 1000 * 1000;
  sw.port.propagation_ns = 5 * kNsPerUs;
  World world(sw);
  Host& server = world.AddHost("www", opt.server_net);
  for (int h = 0; h < opt.hosts; ++h) {
    world.AddHost("load" + std::to_string(h), NetConfig::kNativeBsd);
  }
  if (opt.force_flatten) {
    server.ether_dev->WithoutGatherDma();
  }

  // The content volume lives on a real IDE disk behind the encapsulated
  // Linux driver: cold reads pay seek + transfer, the block cache makes the
  // zipf head cheap — exactly the profile the fs_read span should show.
  server.machine->AddDisk(24 * 1024 * 1024 / 512);
  DeviceRegistry disk_registry;
  linuxdev::InitLinuxIde(server.fdev, server.machine.get(), &disk_registry);
  auto hda_dev = disk_registry.LookupByName("hda");
  ComPtr<BlkIo> hda = ComPtr<BlkIo>::FromQuery(hda_dev.get());

  std::vector<uint8_t> servlet;
  std::string asm_error;
  OSKIT_ASSERT(Ok(vm::Assemble(kDynProgram, &servlet, &asm_error)));

  const int per_host = opt.holders + opt.churn + opt.pipeliners;
  const int fast_expected =
      opt.hosts * (opt.holders * opt.holder_requests + opt.churn +
                   opt.pipeliners * opt.pipe_depth);
  r->expected = fast_expected + opt.hosts * opt.slow * (kSlowPipeline + 1);

  Zipf zipf(kFileCount);
  bool listening = false;
  int hosts_done = 0;
  int hosts_torn = 0;
  bool quit_sent = false;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<size_t>(fast_expected));
  SimTime first_req = ~SimTime{0};
  SimTime last_resp = 0;
  std::vector<std::unique_ptr<LoadHost>> states;
  for (int h = 0; h < opt.hosts; ++h) {
    auto st = std::make_unique<LoadHost>();
    st->conns.resize(static_cast<size_t>(per_host));
    states.push_back(std::move(st));
  }

  auto note_resp = [&](SimTime now) {
    ++r->completed;
    if (now > last_resp) {
      last_resp = now;
    }
  };

  // ---- the server fiber: storage bring-up, then the event loop ----
  std::unique_ptr<http::Server> httpd;
  world.sim().Spawn("www/httpd", [&] {
    std::vector<Partition> layout = {
        {.start_sector = 64,
         .sector_count = 24 * 1024 * 1024 / 512 - 64,
         .type = kPartTypeOskitFs},
    };
    OSKIT_ASSERT(Ok(WriteMbr(hda.get(), layout)));
    std::vector<Partition> found;
    OSKIT_ASSERT(Ok(ReadPartitions(hda.get(), &found)));
    ComPtr<BlkIo> part = MakePartitionView(hda.get(), found[0]);
    OSKIT_ASSERT(Ok(fs::Mkfs(part.get())));
    fs::MountOptions mo;
    mo.trace = &server.trace;
    ComPtr<FileSystem> ffs;
    OSKIT_ASSERT(Ok(fs::Offs::Mount(part.get(), mo, ffs.Receive())));
    ComPtr<Dir> root;
    OSKIT_ASSERT(Ok(ffs->GetRoot(root.Receive())));
    OSKIT_ASSERT(Ok(root->Mkdir("files", 0755)));
    ComPtr<File> files_file;
    OSKIT_ASSERT(Ok(root->Lookup("files", files_file.Receive())));
    auto files = ComPtr<Dir>::FromQuery(files_file.get());
    size_t n = 0;
    for (int i = 0; i < kFileCount; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "f%02d.bin", i);
      ComPtr<File> f;
      OSKIT_ASSERT(Ok(files->Create(name, 0644, f.Receive())));
      std::string data(FileSizeOf(i), static_cast<char>('a' + i % 26));
      OSKIT_ASSERT(Ok(f->Write(data.data(), 0, data.size(), &n)));
    }
    {
      ComPtr<File> big;
      OSKIT_ASSERT(Ok(root->Create("big.bin", 0644, big.Receive())));
      std::string data(kBigBytes, 'B');
      OSKIT_ASSERT(Ok(big->Write(data.data(), 0, data.size(), &n)));
    }
    // Remount so the serving phase starts with a cold block cache: the
    // zipf head warms up fast, the tail keeps paying real IDE seek and
    // transfer time — which is what the fs_read span must show.
    files.Reset();
    files_file.Reset();
    root.Reset();
    OSKIT_ASSERT(Ok(ffs->Unmount()));
    ffs.Reset();
    OSKIT_ASSERT(Ok(fs::Offs::Mount(part.get(), mo, ffs.Receive())));
    OSKIT_ASSERT(Ok(ffs->GetRoot(root.Receive())));

    http::Server::Config cfg;
    cfg.bind = SockAddr{kInetAny, kPort};
    cfg.backlog = 1024;
    cfg.trace = &server.trace;
    cfg.now = [&world] { return world.sim().clock().Now(); };
    httpd = std::make_unique<http::Server>(server.socket_factory,
                                           server.stack->CreateSelector(),
                                           root, cfg);
    httpd->AddDynRoute("/dyn/add", [servlet](const http::Request& req,
                                             std::string* body,
                                             std::string* type) -> int {
      std::string out;
      ConsoleSys sys(&out);
      vm::Vm machine(servlet, &sys);
      if (!Ok(machine.Verify())) {
        return 500;
      }
      machine.set_global(0, QueryArg(req.target, "a"));
      machine.set_global(1, QueryArg(req.target, "b"));
      machine.SpawnThread(0);
      if (!Ok(machine.Run())) {
        return 500;
      }
      *body = out + "\n";
      *type = "text/plain";
      return 200;
    });
    OSKIT_ASSERT(Ok(httpd->Start()));
    listening = true;
    httpd->Run();
    // Linger so client TIME_WAIT timers drain inside the measured run.
    world.sim().SleepFor(2 * kNsPerSec);
  });

  // ---- loadgen hosts: launcher + harvester, plus slow-reader fibers ----
  for (int h = 0; h < opt.hosts; ++h) {
    Host& lg = world.host(1 + h);
    LoadHost& st = *states[h];
    auto sel = std::make_shared<ComPtr<NetSelector>>();

    world.sim().Spawn("launcher", [&, h, sel] {
      world.sim().WaitUntil([&] { return listening; });
      // Warm the ARP cache: the one-deep pending queue would otherwise
      // swallow the SYN storm into 6 s retransmits.
      SimTime rtt = 0;
      lg.stack->Ping(server.addr, kNsPerSec, &rtt);
      st.warm = true;
      *sel = lg.stack->CreateSelector();
      Rng rng(opt.seed + static_cast<uint64_t>(h) * 7919);
      for (int c = 0; c < per_host; ++c) {
        SimTime gap = static_cast<SimTime>(
            -static_cast<double>(opt.mean_arrival_us * kNsPerUs) *
            std::log(1.0 - rng.Unit()));
        world.sim().SleepFor(gap);
        CConn& conn = st.conns[static_cast<size_t>(c)];
        if (c < opt.holders) {
          conn.mode = CConn::kHolder;
          conn.rounds_left = opt.holder_requests;
        } else if (c < opt.holders + opt.churn) {
          conn.mode = CConn::kChurn;
        } else {
          conn.mode = CConn::kPipe;
        }
        conn.sock = lg.MakeSocket(SockType::kStream);
        SocketExt* ext = QueryExt(conn.sock.get());
        ext->SetNonBlocking(true);
        ext->Release();
        Error err = conn.sock->Connect(SockAddr{server.addr, kPort});
        if (err != Error::kWouldBlock && !Ok(err)) {
          conn.failed = true;
          conn.done = true;
          ++r->failures;
          ++st.done;
          continue;
        }
        (*sel)->Add(conn.sock.get(), kNetWritable, /*edge=*/true, &conn);
      }
    });

    world.sim().Spawn("harvester", [&, h, sel] {
      world.sim().WaitUntil([&] { return sel->get() != nullptr; });
      Rng rng(opt.seed ^ (0xabcd0000 + static_cast<uint64_t>(h)));
      // Stages the next request round on an established connection.  The
      // requests are tiny; the send buffer always takes them whole.
      auto stage = [&](CConn& conn) {
        std::string wire;
        int reqs = 0;
        switch (conn.mode) {
          case CConn::kHolder: {
            int f = zipf.Sample(rng);
            wire = "GET " + FilePath(f) + " HTTP/1.1\r\nHost: bench\r\n\r\n";
            conn.expect.push_back(FileSizeOf(f));
            reqs = 1;
            --conn.rounds_left;
            break;
          }
          case CConn::kChurn: {
            if (rng.Unit() < 0.25) {
              int64_t a = static_cast<int64_t>(rng.Next() % 100);
              int64_t b = static_cast<int64_t>(rng.Next() % 100);
              wire = "GET /dyn/add?a=" + std::to_string(a) +
                     "&b=" + std::to_string(b) +
                     " HTTP/1.1\r\nConnection: close\r\n\r\n";
              conn.expect.push_back(std::to_string(a + b).size() + 1);
            } else {
              int f = zipf.Sample(rng);
              wire = "GET " + FilePath(f) +
                     " HTTP/1.1\r\nConnection: close\r\n\r\n";
              conn.expect.push_back(FileSizeOf(f));
            }
            reqs = 1;
            break;
          }
          case CConn::kPipe: {
            // One segment, pipe_depth requests, the last closes.
            for (int k = 0; k < opt.pipe_depth; ++k) {
              int f = zipf.Sample(rng);
              wire += "GET " + FilePath(f) + " HTTP/1.1\r\n";
              if (k == opt.pipe_depth - 1) {
                wire += "Connection: close\r\n";
              }
              wire += "\r\n";
              conn.expect.push_back(FileSizeOf(f));
            }
            reqs = opt.pipe_depth;
            break;
          }
        }
        SimTime now = world.sim().clock().Now();
        if (now < first_req) {
          first_req = now;
        }
        for (int k = 0; k < reqs; ++k) {
          conn.sent_ts.push_back(now);
        }
        conn.await += reqs;
        size_t sent = 0;
        Error err = conn.sock->Send(wire.data(), wire.size(), &sent);
        if (!Ok(err) || sent != wire.size()) {
          conn.failed = true;
        }
      };
      NetReadyEvent events[64];
      char buf[8192];
      auto finish = [&](CConn& conn, bool hold) {
        (*sel)->Remove(conn.sock.get());
        if (!hold) {
          conn.sock.Reset();
        }
        conn.done = true;
        ++st.done;
      };
      while (st.done < per_host) {
        size_t n = 0;
        (*sel)->Wait(events, 64, /*block=*/true, &n);
        for (size_t i = 0; i < n; ++i) {
          CConn& conn = *static_cast<CConn*>(events[i].token);
          if (conn.done) {
            continue;
          }
          if ((events[i].events & kNetError) != 0) {
            conn.failed = true;
            ++r->failures;
            finish(conn, /*hold=*/false);
            continue;
          }
          if (!conn.connected && (events[i].events & kNetWritable) != 0) {
            conn.connected = true;
            stage(conn);
            if (conn.failed) {
              ++r->failures;
              finish(conn, /*hold=*/false);
              continue;
            }
            (*sel)->Modify(conn.sock.get(), kNetReadable, /*edge=*/true);
            continue;
          }
          if ((events[i].events & kNetReadable) == 0) {
            continue;
          }
          size_t got = 0;
          Error err;
          bool eof = false;
          while ((err = conn.sock->Recv(buf, sizeof(buf), &got)) ==
                     Error::kOk &&
                 got > 0) {
            conn.parser.Feed(buf, got);
          }
          eof = Ok(err) && got == 0;
          if (conn.parser.status() == http::ParseStatus::kError) {
            conn.failed = true;
            ++r->failures;
            finish(conn, /*hold=*/false);
            continue;
          }
          while (conn.parser.HasResponse()) {
            http::Response resp = conn.parser.TakeResponse();
            SimTime now = world.sim().clock().Now();
            if (resp.status == 200 && !conn.expect.empty() &&
                resp.body.size() == conn.expect.front()) {
              note_resp(now);
            } else {
              conn.failed = true;
              ++r->failures;
            }
            if (!conn.sent_ts.empty()) {
              latencies_us.push_back(
                  static_cast<double>(now - conn.sent_ts.front()) /
                  kNsPerUs);
              conn.sent_ts.pop_front();
            }
            if (!conn.expect.empty()) {
              conn.expect.pop_front();
            }
            --conn.await;
          }
          if (conn.done) {
            continue;
          }
          if (conn.await == 0 && conn.mode == CConn::kHolder &&
              conn.rounds_left > 0) {
            stage(conn);
            continue;
          }
          if (conn.await == 0) {
            // Holders park established until the barrier; churn and
            // pipeliners close out.
            finish(conn, /*hold=*/conn.mode == CConn::kHolder);
            continue;
          }
          if (eof) {
            // Peer closed with responses still owed: failure.
            conn.failed = true;
            r->failures += conn.await;
            conn.await = 0;
            finish(conn, /*hold=*/false);
          }
        }
      }
      ++hosts_done;
      // The concurrency barrier: every host keeps its holders established
      // until everyone (including the slow readers) is finished.
      world.sim().WaitUntil([&] {
        if (hosts_done < opt.hosts) {
          return false;
        }
        for (const auto& s : states) {
          if (s->slow_done < opt.slow) {
            return false;
          }
        }
        return true;
      });
      for (CConn& conn : st.conns) {
        conn.sock.Reset();
      }
      ++hosts_torn;
    });

    for (int s = 0; s < opt.slow; ++s) {
      world.sim().Spawn("slow", [&, h, s] {
        world.sim().WaitUntil([&] { return st.warm; });
        world.sim().SleepFor((1 + static_cast<SimTime>(s)) * kNsPerMs);
        constexpr int kSlowTotal = kSlowPipeline + 1;
        ComPtr<Socket> sock = lg.MakeSocket(SockType::kStream);
        if (!Ok(sock->Connect(SockAddr{server.addr, kPort}))) {
          r->failures += kSlowTotal;
          ++st.slow_done;
          return;
        }
        // Three pipelined big-file requests: ~384 KB of staged response
        // forces the server past kOutHighWater while we dribble.  A
        // fourth request sent mid-drain lands while the server is parked
        // above the high-water mark — that is the read-pause path.
        std::string wire;
        for (int k = 0; k < kSlowPipeline; ++k) {
          wire += "GET /big.bin HTTP/1.1\r\n\r\n";
        }
        SimTime t0 = world.sim().clock().Now();
        if (t0 < first_req) {
          first_req = t0;
        }
        size_t sent = 0;
        if (!Ok(sock->Send(wire.data(), wire.size(), &sent))) {
          r->failures += kSlowTotal;
          ++st.slow_done;
          return;
        }
        http::ResponseParser parser;
        char buf[4096];
        int taken = 0;
        int recvs = 0;
        bool dead = false;
        bool last_sent = false;
        while (taken < kSlowTotal && !dead) {
          world.sim().SleepFor(500 * kNsPerUs);
          if (!last_sent && ++recvs == 8) {
            const char last[] =
                "GET /big.bin HTTP/1.1\r\nConnection: close\r\n\r\n";
            if (!Ok(sock->Send(last, sizeof(last) - 1, &sent))) {
              dead = true;
              break;
            }
            last_sent = true;
          }
          size_t got = 0;
          Error err = sock->Recv(buf, sizeof(buf), &got);
          if (!Ok(err) || got == 0) {
            dead = true;
            break;
          }
          parser.Feed(buf, got);
          if (parser.status() == http::ParseStatus::kError) {
            dead = true;
            break;
          }
          while (parser.HasResponse()) {
            http::Response resp = parser.TakeResponse();
            if (resp.status == 200 && resp.body.size() == kBigBytes) {
              note_resp(world.sim().clock().Now());
              ++taken;
            } else {
              dead = true;
            }
          }
        }
        if (taken < kSlowTotal) {
          r->failures += kSlowTotal - taken;
        }
        sock.Reset();
        ++st.slow_done;
      });
    }
  }

  // The quit fiber: after every host has torn down, one clean request
  // drains the server loop.
  world.sim().Spawn("quit", [&] {
    world.sim().WaitUntil([&] { return hosts_torn >= opt.hosts; });
    Host& lg = world.host(1);
    ComPtr<Socket> sock = lg.MakeSocket(SockType::kStream);
    OSKIT_ASSERT(Ok(sock->Connect(SockAddr{server.addr, kPort})));
    std::vector<http::Response> resp;
    OSKIT_ASSERT(
        Exchange(sock.get(),
                 "GET /__quit HTTP/1.1\r\nConnection: close\r\n\r\n", 1,
                 &resp));
    OSKIT_ASSERT(resp[0].status == 200);
    quit_sent = true;
  });

  world.RunToCompletion(3600 * kNsPerSec);
  OSKIT_ASSERT(quit_sent);

  std::sort(latencies_us.begin(), latencies_us.end());
  r->p50 = Percentile(latencies_us, 0.50);
  r->p99 = Percentile(latencies_us, 0.99);
  r->p999 = Percentile(latencies_us, 0.999);
  r->pmax = latencies_us.empty() ? 0 : latencies_us.back();
  double window_s = last_resp > first_req
                        ? static_cast<double>(last_resp - first_req) / kNsPerSec
                        : 0;
  r->throughput_rps = window_s > 0 ? r->completed / window_s : 0;

  const auto& sc = server.stack->counters();
  r->established_peak = sc.tcp_established_peak.value();
  r->listen_overflows = sc.tcp_listen_overflows.value();
  const auto& reg = server.trace.registry;
  r->requests = reg.Value("http.requests");
  r->responses = reg.Value("http.responses");
  r->pipelined = reg.Value("http.requests.pipelined");
  r->read_paused = reg.Value("http.read_paused");
  r->bytes_out = reg.Value("http.bytes_out");
  r->sg_frames = reg.Value("glue.send.sg_frames");
  r->tx_copied_bytes = reg.Value("glue.send.copied_bytes");
  r->napi_polls = reg.Value("glue.rx.poll.polls");
  r->rx_frames = reg.Value("nic.rx.coalesce.frames");
  r->rx_irqs = reg.Value("nic.rx.coalesce.irqs");
  reg.ForEach(
      [&](const char* name, uint64_t value, bool) {
        r->attribution.emplace_back(name, value);
      },
      "http.span.");
}

// ---------------------------------------------------------------------------
// The secure phase: a slow-loris tenant behind quotas cannot starve the
// victims sharing its host.

struct SecureResult {
  uint64_t loris_denials = 0;  // kQuotaExceeded on socket creation
  int loris_held = 0;          // connections it did get (== its budget)
  int victim_expected = 0;
  int victim_completed = 0;
  double victim_p99_us = 0;
  bool drained = false;
};

void RunSecurePhase(uint64_t seed, SecureResult* out) {
  constexpr int kVictims = 4;
  constexpr int kVictimRequests = 25;
  constexpr int kLorisAttempts = 40;
  constexpr uint64_t kLorisBudget = 8;
  out->victim_expected = kVictims * kVictimRequests;

  VirtualSwitch::Config sw;
  sw.port.bits_per_second = 1000ull * 1000 * 1000;
  sw.port.propagation_ns = 5 * kNsPerUs;
  World world(sw);
  Host& server = world.AddHost("www", NetConfig::kOskitNapi);
  Host& tenants = world.AddHost("tenants", NetConfig::kNativeBsd);

  // The shared protection domain on the tenants host.
  PrincipalRegistry principals(&tenants.trace);
  NetGuard guard(&principals);
  tenants.stack->SetAccounting(&guard);
  Principal* loris = principals.Create(
      "loris", Budget{}.Set(Resource::kSockets, kLorisBudget));
  Principal* victim = principals.Create("victim");

  bool listening = false;
  int victims_done = 0;
  bool loris_parked = false;
  std::vector<double> victim_lat_us;

  std::unique_ptr<http::Server> httpd;
  world.sim().Spawn("www/httpd", [&] {
    auto disk = MemBlkIo::Create(2 * 1024 * 1024, 512);
    OSKIT_ASSERT(Ok(fs::Mkfs(disk.get())));
    ComPtr<FileSystem> ffs;
    OSKIT_ASSERT(Ok(fs::Offs::Mount(disk.get(), {.trace = &server.trace}, ffs.Receive())));
    ComPtr<Dir> root;
    OSKIT_ASSERT(Ok(ffs->GetRoot(root.Receive())));
    ComPtr<File> f;
    OSKIT_ASSERT(Ok(root->Create("page.html", 0644, f.Receive())));
    std::string body(2048, 'p');
    size_t n = 0;
    OSKIT_ASSERT(Ok(f->Write(body.data(), 0, body.size(), &n)));

    http::Server::Config cfg;
    cfg.bind = SockAddr{kInetAny, kPort};
    cfg.trace = &server.trace;
    cfg.now = [&world] { return world.sim().clock().Now(); };
    httpd = std::make_unique<http::Server>(server.socket_factory,
                                           server.stack->CreateSelector(),
                                           root, cfg);
    OSKIT_ASSERT(Ok(httpd->Start()));
    listening = true;
    httpd->Run();
  });

  // The slow-loris tenant: grabs every socket it can, sends a partial
  // request header on each, and parks.  The quota caps the grab at its
  // budget; every further Create is a counted kQuotaExceeded, not a hang.
  world.sim().Spawn("loris", [&] {
    world.sim().WaitUntil([&] { return listening; });
    SimTime rtt = 0;
    tenants.stack->Ping(server.addr, kNsPerSec, &rtt);
    ComPtr<SocketFactory> net = secure::MakeSecureSocketFactory(
        tenants.stack->CreateSocketFactory(), loris, &guard);
    std::vector<ComPtr<Socket>> hoard;
    for (int i = 0; i < kLorisAttempts; ++i) {
      ComPtr<Socket> s;
      Error err = net->Create(SockDomain::kInet, SockType::kStream,
                              s.Receive());
      if (err == Error::kQuotaExceeded) {
        continue;  // counted below via the principal's denial gauge
      }
      OSKIT_ASSERT(Ok(err));
      if (!Ok(s->Connect(SockAddr{server.addr, kPort}))) {
        continue;
      }
      size_t sent = 0;
      const char drip[] = "GET /page.html HTTP/1.1\r\nX-Drip: ";
      s->Send(drip, sizeof(drip) - 1, &sent);
      hoard.push_back(std::move(s));
    }
    out->loris_held = static_cast<int>(hoard.size());
    loris_parked = true;
    world.sim().WaitUntil([&] { return victims_done >= kVictims; });
    hoard.clear();
  });

  // Victim tenants: ordinary keep-alive GET loops through their own secure
  // wrappers, which must complete untouched while the loris squats.
  for (int v = 0; v < kVictims; ++v) {
    world.sim().Spawn("victim", [&, v] {
      world.sim().WaitUntil([&] { return loris_parked; });
      Rng rng(seed + static_cast<uint64_t>(v));
      ComPtr<SocketFactory> net = secure::MakeSecureSocketFactory(
          tenants.stack->CreateSocketFactory(), victim, &guard);
      ComPtr<Socket> sock;
      OSKIT_ASSERT(Ok(net->Create(SockDomain::kInet, SockType::kStream,
                                  sock.Receive())));
      OSKIT_ASSERT(Ok(sock->Connect(SockAddr{server.addr, kPort})));
      for (int i = 0; i < kVictimRequests; ++i) {
        world.sim().SleepFor(static_cast<SimTime>(rng.Next() % 512) *
                             kNsPerUs);
        SimTime t0 = world.sim().clock().Now();
        std::vector<http::Response> resp;
        if (Exchange(sock.get(), "GET /page.html HTTP/1.1\r\n\r\n", 1,
                     &resp) &&
            resp[0].status == 200 && resp[0].body.size() == 2048) {
          ++out->victim_completed;
          victim_lat_us.push_back(
              static_cast<double>(world.sim().clock().Now() - t0) /
              kNsPerUs);
        }
      }
      sock.Reset();
      ++victims_done;
    });
  }

  world.sim().Spawn("quit", [&] {
    world.sim().WaitUntil([&] { return victims_done >= kVictims; });
    ComPtr<Socket> sock = tenants.MakeSocket(SockType::kStream);
    OSKIT_ASSERT(Ok(sock->Connect(SockAddr{server.addr, kPort})));
    std::vector<http::Response> resp;
    OSKIT_ASSERT(
        Exchange(sock.get(),
                 "GET /__quit HTTP/1.1\r\nConnection: close\r\n\r\n", 1,
                 &resp));
    OSKIT_ASSERT(resp[0].status == 200);
  });

  // RunToCompletion panics on deadlock: returning at all is the no-hang
  // proof.
  world.RunToCompletion(600 * kNsPerSec);
  out->drained = true;
  out->loris_denials = loris->denied(Resource::kSockets);
  std::sort(victim_lat_us.begin(), victim_lat_us.end());
  out->victim_p99_us = Percentile(victim_lat_us, 0.99);
}

uint64_t AttrValue(const PhaseResult& r, const char* name) {
  for (const auto& [k, v] : r.attribution) {
    if (k == name) {
      return v;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  PhaseOptions main_opt;
  const char* json_path = nullptr;
  if (!bench::ParseFlags(argc, argv, {{"--hosts", &main_opt.hosts},
                                      {"--holders", &main_opt.holders},
                                      {"--churn", &main_opt.churn},
                                      {"--requests", &main_opt.holder_requests},
                                      {"--mean-us", &main_opt.mean_arrival_us},
                                      {"--seed", &main_opt.seed},
                                      {"--json", &json_path}})) {
    return 2;
  }
  const int held_total = main_opt.hosts * main_opt.holders;

  std::printf("HTTP campaign: %d loadgen hosts x (%d holders x %d reqs + "
              "%d churn + %d pipeliners x %d + %d slow)\n\n",
              main_opt.hosts, main_opt.holders, main_opt.holder_requests,
              main_opt.churn, main_opt.pipeliners, main_opt.pipe_depth,
              main_opt.slow);

  PhaseResult main_r;
  RunHttpPhase(main_opt, &main_r);

  // Ablation trio at one small common scale: identical load, three server
  // configurations.  Throughput barely moves (compute is free in the
  // simulator); the paper-shaped deltas are bytes copied per TX byte and
  // RX interrupts per frame.
  PhaseOptions abl;
  abl.hosts = 2;
  abl.holders = 40;
  abl.holder_requests = 2;
  abl.churn = 20;
  abl.pipeliners = 4;
  abl.slow = 2;
  abl.seed = main_opt.seed + 17;
  PhaseResult base_r, nosg_r, nonapi_r;
  abl.name = "abl_base";
  RunHttpPhase(abl, &base_r);
  abl.name = "abl_nosg";
  abl.force_flatten = true;
  RunHttpPhase(abl, &nosg_r);
  abl.name = "abl_nonapi";
  abl.force_flatten = false;
  abl.server_net = NetConfig::kOskit;
  RunHttpPhase(abl, &nonapi_r);

  SecureResult sec;
  RunSecurePhase(main_opt.seed + 31, &sec);

  // ---- report ----
  auto irqs_per_frame = [](const PhaseResult& r) {
    return r.rx_frames > 0
               ? static_cast<double>(r.rx_irqs) / static_cast<double>(r.rx_frames)
               : 0.0;
  };
  auto copied_per_byte = [](const PhaseResult& r) {
    return r.bytes_out > 0 ? static_cast<double>(r.tx_copied_bytes) /
                                 static_cast<double>(r.bytes_out)
                           : 0.0;
  };

  std::printf("%-34s | %12s\n", "metric", "value");
  std::printf("-----------------------------------+-------------\n");
  std::printf("%-34s | %9d/%d\n", "responses completed/expected",
              main_r.completed, main_r.expected);
  std::printf("%-34s | %12llu\n", "server established peak",
              static_cast<unsigned long long>(main_r.established_peak));
  std::printf("%-34s | %12.0f\n", "throughput (responses/sec, sim)",
              main_r.throughput_rps);
  std::printf("%-34s | %12.1f\n", "request p50 (us)", main_r.p50);
  std::printf("%-34s | %12.1f\n", "request p99 (us)", main_r.p99);
  std::printf("%-34s | %12.1f\n", "request p999 (us)", main_r.p999);
  std::printf("%-34s | %12.1f\n", "request max (us)", main_r.pmax);
  std::printf("%-34s | %12llu\n", "pipelined requests",
              static_cast<unsigned long long>(main_r.pipelined));
  std::printf("%-34s | %12llu\n", "read pauses (backpressure)",
              static_cast<unsigned long long>(main_r.read_paused));
  std::printf("%-34s | %12llu\n", "SG frames",
              static_cast<unsigned long long>(main_r.sg_frames));
  std::printf("%-34s | %12llu\n", "NAPI polls",
              static_cast<unsigned long long>(main_r.napi_polls));
  std::printf("%-34s | %12llu\n", "listen overflows",
              static_cast<unsigned long long>(main_r.listen_overflows));
  std::printf("\nAttribution (http.span.*):\n");
  for (const auto& [name, value] : main_r.attribution) {
    std::printf("  %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\nAblations (common small scale):\n");
  std::printf("  %-10s %10s %12s %14s %10s\n", "config", "rps", "p50_us",
              "copied/byte", "irqs/frm");
  auto abl_row = [&](const char* name, const PhaseResult& r) {
    std::printf("  %-10s %10.0f %12.1f %14.4f %10.4f\n", name,
                r.throughput_rps, r.p50, copied_per_byte(r),
                irqs_per_frame(r));
  };
  abl_row("base", base_r);
  abl_row("no-sg", nosg_r);
  abl_row("no-napi", nonapi_r);

  bench::Report report("http", json_path);
  std::printf("\nShape checks:\n");
  report.Check("completion",
               main_r.completed == main_r.expected && main_r.failures == 0,
               "%d/%d responses, %d failures", main_r.completed,
               main_r.expected, main_r.failures);
  report.Check("concurrency",
               main_r.established_peak >= static_cast<uint64_t>(held_total),
               "peak %llu >= %d held-open",
               static_cast<unsigned long long>(main_r.established_peak),
               held_total);
  if (held_total >= 1000) {
    report.Check("kiloconn", main_r.established_peak >= 1000,
                 "peak %llu >= 1000 concurrent",
                 static_cast<unsigned long long>(main_r.established_peak));
  } else {
    std::printf("  kiloconn:     SKIPPED (reduced scale: %d < 1000)\n",
                held_total);
  }
  report.Check("mixed_load", main_r.pipelined > 0 && main_r.read_paused > 0,
               "%llu pipelined, %llu read pauses",
               static_cast<unsigned long long>(main_r.pipelined),
               static_cast<unsigned long long>(main_r.read_paused));

  // The attribution table really attributes: every response got a request
  // span, the selector wait accrued real simulated time, and the FS path
  // was exercised.
  uint64_t span_reqs = AttrValue(main_r, "http.span.request.count");
  report.Check("attribution",
               span_reqs == main_r.responses &&
                   AttrValue(main_r, "http.span.wait.self_ns") > 0 &&
                   AttrValue(main_r, "http.span.fs_read.count") > 0 &&
                   AttrValue(main_r, "http.span.fs_read.self_ns") > 0 &&
                   AttrValue(main_r, "http.span.dyn.count") > 0,
               "%llu request spans == %llu responses, wait self %llu ns",
               static_cast<unsigned long long>(span_reqs),
               static_cast<unsigned long long>(main_r.responses),
               static_cast<unsigned long long>(
                   AttrValue(main_r, "http.span.wait.self_ns")));

  // Zero-copy ablation: SG carried the main phase, the flattened run
  // copied every response byte at least once, the no-NAPI run took ~1
  // interrupt per frame where the NAPI run coalesced.
  report.Check("ablations",
               main_r.sg_frames > 0 && main_r.napi_polls > 0 &&
                   nosg_r.sg_frames == 0 && copied_per_byte(nosg_r) >= 1.0 &&
                   copied_per_byte(base_r) < 0.5 && nonapi_r.napi_polls == 0 &&
                   irqs_per_frame(nonapi_r) > irqs_per_frame(base_r),
               "copied/byte %.3f(base) %.3f(no-sg), irqs/frm %.3f(base) "
               "%.3f(no-napi)",
               copied_per_byte(base_r), copied_per_byte(nosg_r),
               irqs_per_frame(base_r), irqs_per_frame(nonapi_r));
  report.Check("internals", main_r.listen_overflows == 0,
               "%llu listen overflows",
               static_cast<unsigned long long>(main_r.listen_overflows));
  report.Check("slow_loris",
               sec.drained && sec.loris_denials > 0 && sec.loris_held <= 8 &&
                   sec.victim_completed == sec.victim_expected,
               "%llu denials, %d held (budget 8), victims %d/%d, p99 %.1f us",
               static_cast<unsigned long long>(sec.loris_denials),
               sec.loris_held, sec.victim_completed, sec.victim_expected,
               sec.victim_p99_us);

  report.json.Set("hosts", main_opt.hosts)
      .Set("held_total", held_total)
      .Set("expected", main_r.expected)
      .Set("completed", main_r.completed)
      .Set("failures", main_r.failures)
      .Set("established_peak", main_r.established_peak)
      .Set("throughput_rps", main_r.throughput_rps)
      .Set("latency_us.p50", main_r.p50)
      .Set("latency_us.p99", main_r.p99)
      .Set("latency_us.p999", main_r.p999)
      .Set("latency_us.max", main_r.pmax)
      .Set("server.requests", main_r.requests)
      .Set("server.responses", main_r.responses)
      .Set("server.pipelined", main_r.pipelined)
      .Set("server.read_paused", main_r.read_paused)
      .Set("server.bytes_out", main_r.bytes_out)
      .Set("server.sg_frames", main_r.sg_frames)
      .Set("server.napi_polls", main_r.napi_polls)
      .Set("server.listen_overflows", main_r.listen_overflows)
      .Set("attribution", bench::Json::Object(main_r.attribution));
  const std::pair<const char*, const PhaseResult*> ablations[] = {
      {"base", &base_r}, {"no_sg", &nosg_r}, {"no_napi", &nonapi_r}};
  for (const auto& [name, r] : ablations) {
    std::string key = std::string("ablations.") + name;
    report.json.Set(key + ".throughput_rps", r->throughput_rps)
        .Set(key + ".p50_us", r->p50)
        .Set(key + ".copied_per_byte", copied_per_byte(*r))
        .Set(key + ".irqs_per_frame", irqs_per_frame(*r))
        .Set(key + ".sg_frames", r->sg_frames)
        .Set(key + ".napi_polls", r->napi_polls);
  }
  report.json.Set("secure.loris_denials", sec.loris_denials)
      .Set("secure.loris_held", sec.loris_held)
      .Set("secure.victim_completed", sec.victim_completed)
      .Set("secure.victim_expected", sec.victim_expected)
      .Set("secure.victim_p99_us", sec.victim_p99_us)
      .Set("secure.drained", sec.drained);
  return report.Finish();
}
