// http_mixed: the flagship HTTP/1.1 mix.  Four kNativeBsd load hosts drive
// one kOskitNapi server running http::Server over journaled FFS on the IDE
// disk, all on a 1 Gbps VirtualSwitch.
//
// Set-up builds the world, formats and populates the content volume,
// remounts it (cold cache), starts the server and establishes the
// keep-alive holders, which stay open for the whole run so that more than
// 1,000 connections are established.  Each epoch then runs, per load host,
// one open-loop arrival schedule (exponential gaps, seeded order) of:
//   holders     every holder starts a closed loop of two sequential zipf
//               GETs on its established connection;
//   churn       one-shot Connection: close requests on new connections, a
//               quarter of them to the KVM /dyn/add servlet;
//   pipeliners  new connections pipelining four GETs in one segment;
// plus slow readers pipelining big files and draining them a few KB per
// half millisecond (server backpressure).  Requests are timed from their
// scheduled arrival (a holder's later rounds from when they were sent), so
// connect and accept-queue wait count.  Slow-reader responses are operations but not
// latency samples (their latency is set by the reader).  Every body is
// compared byte for byte with the file it names.
//
// The catalog (192 files, ~1.6 MB) is larger than the FFS block cache
// (256 x 4 KB): the zipf head hits the cache, the tail pays IDE seeks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/base/random.h"
#include "src/dev/linux/linux_ide.h"
#include "src/fs/ffs.h"
#include "src/http/http.h"
#include "src/http/server.h"
#include "src/testbed/testbed.h"
#include "src/vm/kvm.h"

namespace kitbench {
namespace {

using namespace oskit;
using namespace oskit::testbed;

constexpr uint16_t kPort = 8080;
constexpr int kFiles = 192;
constexpr size_t kBigBytes = 128 * 1024;
constexpr int kHosts = 4;
constexpr int kHolders = 260;        // per host, held open across epochs
constexpr int kHolderRequests = 2;   // sequential GETs per holder per epoch
constexpr int kChurn = 60;           // per host per epoch
constexpr int kPipeliners = 8;       // per host per epoch
constexpr int kPipeDepth = 4;
constexpr int kSlow = 2;             // per host per epoch
constexpr int kSlowPipeline = 3;     // big files pipelined up front (+1 later)
constexpr SimTime kMeanArrival = kNsPerMs;  // ~330 ms of arrivals per epoch
constexpr SimTime kSlice = kNsPerMs;  // host-loop granularity between epochs
constexpr uint64_t kDiskBytes = 24 * 1024 * 1024;

size_t FileSize(int i) { return size_t{256} << (Mix(static_cast<uint64_t>(i), 77) % 8); }

std::string FilePath(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/files/f%03d.bin", i);
  return buf;
}

// Zipf(s=1) popularity over the catalog.
struct Zipf {
  std::vector<double> cdf;
  explicit Zipf(int n) : cdf(static_cast<size_t>(n)) {
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / (i + 1);
      cdf[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf) {
      c /= total;
    }
  }
  int Sample(Rng& rng) const {
    return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), rng.Unit()) -
                            cdf.begin());
  }
};

// kSysPutInt output of the servlet.
class ConsoleSys final : public vm::SysHandler {
 public:
  explicit ConsoleSys(std::string* out) : out_(out) {}
  Error Syscall(uint16_t number, vm::Vm& machine, int thread) override {
    if (number != vm::kSysPutInt) {
      return Error::kNotImpl;
    }
    out_->append(std::to_string(machine.Pop(thread)));
    return Error::kOk;
  }

 private:
  std::string* out_;
};

constexpr char kDynProgram[] = "gload 0\ngload 1\nadd\nsys 2\nhalt\n";

int64_t QueryArg(const std::string& target, const char* key) {
  std::string needle = std::string(key) + "=";
  size_t q = target.find('?');
  while (q != std::string::npos) {
    if (target.compare(q + 1, needle.size(), needle) == 0) {
      return std::strtoll(target.c_str() + q + 1 + needle.size(), nullptr, 10);
    }
    q = target.find('&', q + 1);
  }
  return 0;
}

// One client connection, driven off its load host's selector.
struct CConn {
  enum Mode { kHolder, kChurn, kPipe } mode = kHolder;
  ComPtr<Socket> sock;
  http::ResponseParser parser;
  std::deque<const std::string*> expect;  // expected body per outstanding request
  std::deque<SimTime> start;              // latency origin per outstanding request
  SimTime due = 0;                        // open loop: the scheduled arrival
  int rounds_left = 0;
  bool connected = false;
  bool done = false;
};

struct LoadHost {
  ComPtr<NetSelector> sel;
  Rng rng{0};              // the host's request stream for this epoch
  std::vector<std::unique_ptr<CConn>> holders;
  std::vector<std::unique_ptr<CConn>> epoch_conns;  // churn + pipeliners
  int active = 0;          // connections with work left this epoch
  bool launched = false;   // every open-loop arrival of the epoch is in
};

class HttpMixed final : public Workload {
 public:
  explicit HttpMixed(int corrupt_file) : corrupt_file_(corrupt_file) {}

  ~HttpMixed() override {
    if (world_ == nullptr || !httpd_) {
      return;
    }
    // Close every connection and stop the server, so its fiber ends and the
    // world tears down with nothing parked.
    Simulation& sim = world_->sim();
    sim.Spawn("quit", [this] {
      for (LoadHost& lh : hosts_) {
        lh.holders.clear();
        lh.epoch_conns.clear();
        lh.sel.Reset();
      }
      ComPtr<Socket> s = world_->host(1).MakeSocket(SockType::kStream);
      if (!Ok(s->Connect(SockAddr{world_->host(0).addr, kPort}))) {
        return;
      }
      const char quit[] = "GET /__quit HTTP/1.1\r\nConnection: close\r\n\r\n";
      size_t n = 0;
      s->Send(quit, sizeof(quit) - 1, &n);
      char buf[512];
      while (Ok(s->Recv(buf, sizeof(buf), &n)) && n > 0) {
      }
    });
    sim.Run(sim.clock().Now() + 60 * kNsPerSec);
    httpd_.reset();
  }

  void Setup(uint64_t seed, Probe* probe) override {
    seed_ = seed;
    probe_ = probe;
    for (int i = 0; i < kFiles; ++i) {
      catalog_.push_back(PatternString(Mix(seed, static_cast<uint64_t>(i)), FileSize(i)));
    }
    big_ = PatternString(Mix(seed, 0xb16), kBigBytes);
    std::string asm_error;
    OSKIT_ASSERT(Ok(vm::Assemble(kDynProgram, &servlet_, &asm_error)));

    uint64_t build0 = HostNowNs();
    VirtualSwitch::Config sw;
    sw.port.bits_per_second = 1000ull * 1000 * 1000;
    sw.port.propagation_ns = 5 * kNsPerUs;
    world_ = std::make_unique<World>(sw);
    Host& server = world_->AddHost("www", NetConfig::kOskitNapi);
    for (int h = 0; h < kHosts; ++h) {
      world_->AddHost("load" + std::to_string(h), NetConfig::kNativeBsd);
    }
    server.machine->AddDisk(kDiskBytes / 512);
    linuxdev::InitLinuxIde(server.fdev, server.machine.get(), &disk_registry_);
    if (probe_ != nullptr) {
      probe_->set_sim(&world_->sim());
      probe_->world_build_ns += HostNowNs() - build0;
      ++probe_->world_builds;
    }
    hosts_.resize(kHosts);

    world_->sim().Spawn("www/httpd", [this] { ServerMain(); });
    RunUntil([this] { return setup_pending_ == 0; });
    OSKIT_ASSERT_MSG(setup_pending_ == 0 && setup_failures_ == 0,
                     "http_mixed: set-up did not establish every holder");
  }

  Epoch RunEpoch(uint64_t index) override {
    Simulation& sim = world_->sim();
    ep_ = Epoch{};
    dyn_bodies_.clear();
    epoch_index_ = index;
    epoch_pending_ = kHosts * (1 + kSlow);
    ep_.attempted = kHosts * (kHolders * kHolderRequests + kChurn + kPipeliners * kPipeDepth +
                              kSlow * (kSlowPipeline + 1));
    std::vector<trace::CounterSnapshot> before;
    for (size_t h = 0; h < world_->host_count(); ++h) {
      before.push_back(world_->host(h).trace.registry.Snapshot());
    }
    SimTime t0 = sim.clock().Now();
    size_t events0 = sim.clock().events_run();
    for (int h = 0; h < kHosts; ++h) {
      sim.Spawn("harvester", [this, h] { Harvest(h); });
    }
    RunUntil([this] { return epoch_pending_ == 0; });
    for (size_t h = 0; h < world_->host_count(); ++h) {
      AddCounterDelta(before[h], world_->host(h).trace.registry.Snapshot(),
                      world_->host(h).machine->name() + "/", &ep_.counters);
    }
    ep_.events = sim.clock().events_run() - events0;
    ep_.sim_ns = epoch_end_ - t0;
    ep_.payload_sim_ns = ep_.sim_ns;
    ep_.tx_payload_bytes = ep_.payload_bytes;
    ep_.failed = ep_.attempted - ep_.ops;
    return std::move(ep_);
  }

  uint64_t sim_epochs() const override { return 24; }

 private:
  // Runs the world in slices until `done` holds; the epoch's last finisher
  // sets the flag, and the loop notices at the next slice boundary.
  template <typename Pred>
  void RunUntil(Pred done) {
    Simulation& sim = world_->sim();
    SimTime deadline = sim.clock().Now();
    SimTime limit = deadline + 600 * kNsPerSec;
    while (!done() && deadline < limit) {
      deadline += kSlice;
      if (sim.Run(deadline) != Simulation::RunResult::kDeadline) {
        break;
      }
    }
  }

  template <typename Fn>
  Error Net(Fn&& fn) {
    return Timed(probe_, Layer::kNet, fn);
  }

  // ---- server host ----

  void ServerMain() {
    Host& server = world_->host(0);
    auto hda = disk_registry_.LookupByName("hda");
    ComPtr<BlkIo> disk = ComPtr<BlkIo>::FromQuery(hda.get());
    if (probe_ != nullptr) {
      disk = WrapBlkIo(disk, Layer::kDev, probe_);
    }
    OSKIT_ASSERT(Ok(fs::Mkfs(disk.get())));
    fs::MountOptions mo;
    mo.trace = &server.trace;
    {
      ComPtr<FileSystem> ffs;
      OSKIT_ASSERT(Ok(MountTimed(disk.get(), mo, &ffs, probe_)));
      ComPtr<Dir> root;
      OSKIT_ASSERT(Ok(ffs->GetRoot(root.Receive())));
      OSKIT_ASSERT(Ok(root->Mkdir("files", 0755)));
      ComPtr<File> files_file;
      OSKIT_ASSERT(Ok(root->Lookup("files", files_file.Receive())));
      auto files = ComPtr<Dir>::FromQuery(files_file.get());
      size_t n = 0;
      for (int i = 0; i < kFiles; ++i) {
        std::string name = FilePath(i).substr(7);
        std::string data = catalog_[static_cast<size_t>(i)];
        if (i == corrupt_file_) {
          data[data.size() / 2] ^= 0x20;  // the served copy differs by one bit
        }
        ComPtr<File> f;
        OSKIT_ASSERT(Ok(files->Create(name.c_str(), 0644, f.Receive())));
        OSKIT_ASSERT(Ok(f->Write(data.data(), 0, data.size(), &n)));
      }
      ComPtr<File> big;
      OSKIT_ASSERT(Ok(root->Create("big.bin", 0644, big.Receive())));
      OSKIT_ASSERT(Ok(big->Write(big_.data(), 0, big_.size(), &n)));
      OSKIT_ASSERT(Ok(ffs->Unmount()));
    }
    // Remount: serving starts with a cold block cache.
    OSKIT_ASSERT(Ok(MountTimed(disk.get(), mo, &ffs_, probe_)));
    ComPtr<Dir> root;
    OSKIT_ASSERT(Ok(ffs_->GetRoot(root.Receive())));
    ComPtr<NetSelector> selector = server.stack->CreateSelector();
    if (probe_ != nullptr) {
      root = WrapDir(root, probe_);
      selector = WrapSelector(selector, probe_);
    }
    http::Server::Config cfg;
    cfg.bind = SockAddr{kInetAny, kPort};
    cfg.backlog = 1024;
    cfg.trace = &server.trace;
    cfg.now = [this] { return world_->sim().clock().Now(); };
    httpd_ = std::make_unique<http::Server>(server.socket_factory, selector, root, cfg);
    httpd_->AddDynRoute("/dyn/add", [this](const http::Request& req, std::string* body,
                                           std::string* type) {
      std::string out;
      ConsoleSys sys(&out);
      vm::Vm machine(servlet_, &sys);
      if (!Ok(machine.Verify())) {
        return 500;
      }
      machine.set_global(0, QueryArg(req.target, "a"));
      machine.set_global(1, QueryArg(req.target, "b"));
      machine.SpawnThread(0);
      if (!Ok(Timed(probe_, Layer::kVm, [&] { return machine.Run(); }))) {
        return 500;
      }
      *body = out + "\n";
      *type = "text/plain";
      return 200;
    });
    OSKIT_ASSERT(Ok(httpd_->Start()));
    // The server listens: the holders may connect now.
    setup_pending_ = kHosts;
    for (int h = 0; h < kHosts; ++h) {
      world_->sim().Spawn("holders", [this, h] { ConnectHolders(h); });
    }
    httpd_->Run();
  }

  // ---- load hosts ----

  void ConnectHolders(int h) {
    Simulation& sim = world_->sim();
    Host& lg = world_->host(static_cast<size_t>(1 + h));
    LoadHost& lh = hosts_[static_cast<size_t>(h)];
    // Resolve ARP first: the one-deep pending queue would swallow a SYN burst.
    SimTime rtt = 0;
    lg.stack->Ping(world_->host(0).addr, kNsPerSec, &rtt);
    lh.sel = lg.stack->CreateSelector();
    for (int c = 0; c < kHolders; ++c) {
      auto conn = std::make_unique<CConn>();
      conn->mode = CConn::kHolder;
      if (!Ok(OpenNonBlocking(lg, conn.get()))) {
        ++setup_failures_;
        continue;
      }
      lh.sel->Add(conn->sock.get(), kNetWritable, /*edge=*/true, conn.get());
      lh.holders.push_back(std::move(conn));
      sim.SleepFor(20 * kNsPerUs);  // stagger the SYNs under the backlog
    }
    size_t connected = 0;
    NetReadyEvent events[64];
    while (connected < lh.holders.size()) {
      size_t n = 0;
      lh.sel->Wait(events, 64, /*block=*/true, &n);
      for (size_t i = 0; i < n; ++i) {
        auto* conn = static_cast<CConn*>(events[i].token);
        if ((events[i].events & kNetError) != 0) {
          ++setup_failures_;
          ++connected;
          continue;
        }
        if (!conn->connected && (events[i].events & kNetWritable) != 0) {
          conn->connected = true;
          lh.sel->Modify(conn->sock.get(), kNetReadable, /*edge=*/true);
          ++connected;
        }
      }
    }
    --setup_pending_;
  }

  Error OpenNonBlocking(Host& lg, CConn* conn) {
    conn->sock = lg.MakeSocket(SockType::kStream);
    auto ext = ComPtr<SocketExt>::FromQuery(conn->sock.get());
    ext->SetNonBlocking(true);
    Error err = Net([&] { return conn->sock->Connect(SockAddr{world_->host(0).addr, kPort}); });
    return err == Error::kWouldBlock ? Error::kOk : err;
  }

  void FinishUnit() {
    if (--epoch_pending_ == 0) {
      epoch_end_ = world_->sim().clock().Now();
    }
  }

  // Sends the next request(s) of `conn`.
  void Stage(CConn* conn, Rng& rng, SimTime origin) {
    std::string wire;
    int reqs = 1;
    switch (conn->mode) {
      case CConn::kHolder: {
        int f = zipf_.Sample(rng);
        wire = "GET " + FilePath(f) + " HTTP/1.1\r\nHost: bench\r\n\r\n";
        conn->expect.push_back(&catalog_[static_cast<size_t>(f)]);
        --conn->rounds_left;
        break;
      }
      case CConn::kChurn: {
        if (rng.Unit() < 0.25) {
          int64_t a = static_cast<int64_t>(rng.Below(1000));
          int64_t b = static_cast<int64_t>(rng.Below(1000));
          wire = "GET /dyn/add?a=" + std::to_string(a) + "&b=" + std::to_string(b) +
                 " HTTP/1.1\r\nConnection: close\r\n\r\n";
          dyn_bodies_.push_back(std::to_string(a + b) + "\n");
          conn->expect.push_back(&dyn_bodies_.back());
        } else {
          int f = zipf_.Sample(rng);
          wire = "GET " + FilePath(f) + " HTTP/1.1\r\nConnection: close\r\n\r\n";
          conn->expect.push_back(&catalog_[static_cast<size_t>(f)]);
        }
        break;
      }
      case CConn::kPipe: {
        for (int k = 0; k < kPipeDepth; ++k) {
          int f = zipf_.Sample(rng);
          wire += "GET " + FilePath(f) + " HTTP/1.1\r\n";
          if (k == kPipeDepth - 1) {
            wire += "Connection: close\r\n";
          }
          wire += "\r\n";
          conn->expect.push_back(&catalog_[static_cast<size_t>(f)]);
        }
        reqs = kPipeDepth;
        break;
      }
    }
    for (int k = 0; k < reqs; ++k) {
      conn->start.push_back(origin);
    }
    size_t sent = 0;
    Net([&] { return conn->sock->Send(wire.data(), wire.size(), &sent); });
  }

  // Checks every complete response of `conn`; returns false on a parse error.
  bool Drain(CConn* conn) {
    Simulation& sim = world_->sim();
    char buf[16384];
    for (;;) {
      size_t got = 0;
      Error err = Net([&] { return conn->sock->Recv(buf, sizeof(buf), &got); });
      if (probe_ != nullptr) {
        ++probe_->nonblocking_calls;
        probe_->would_block += err == Error::kWouldBlock ? 1 : 0;
      }
      if (!Ok(err) || got == 0) {
        if (Ok(err) && got == 0) {
          conn->done = true;  // EOF
        }
        break;
      }
      if (probe_ != nullptr) {
        probe_->parse_bytes += got;
      }
      Timed(probe_, Layer::kHttpParse, [&] { return conn->parser.Feed(buf, got); });
    }
    if (conn->parser.status() == http::ParseStatus::kError) {
      return false;
    }
    while (conn->parser.HasResponse()) {
      http::Response resp = conn->parser.TakeResponse();
      if (conn->expect.empty()) {
        return false;
      }
      if (resp.status == 200 && resp.body == *conn->expect.front()) {
        ++ep_.ops;
        ep_.payload_bytes += resp.body.size();
        ep_.lat_ns.push_back(sim.clock().Now() - conn->start.front());
      }
      conn->expect.pop_front();
      conn->start.pop_front();
    }
    return true;
  }

  // One load host's epoch: holders restart their closed loops, the launcher
  // adds the open-loop arrivals, and this fiber harvests every connection
  // until the host's share of the epoch is done.
  void Harvest(int h) {
    Simulation& sim = world_->sim();
    LoadHost& lh = hosts_[static_cast<size_t>(h)];
    lh.rng = Rng(Mix(seed_, epoch_index_ * 16 + static_cast<uint64_t>(h)));
    Rng& rng = lh.rng;
    lh.active = 0;
    lh.launched = false;
    lh.epoch_conns.clear();
    sim.Spawn("launcher", [this, h] { Launch(h); });
    for (int s = 0; s < kSlow; ++s) {
      sim.Spawn("slow", [this, h, s] { SlowReader(h, s); });
    }
    NetReadyEvent events[64];
    while (!lh.launched || lh.active > 0) {
      size_t n = 0;
      Net([&] { return lh.sel->Wait(events, 64, /*block=*/true, &n); });
      for (size_t i = 0; i < n; ++i) {
        auto* conn = static_cast<CConn*>(events[i].token);
        if (conn->done) {
          continue;
        }
        if ((events[i].events & kNetError) != 0) {
          Close(lh, conn);
          continue;
        }
        if (!conn->connected) {
          if ((events[i].events & kNetWritable) != 0) {
            conn->connected = true;
            Stage(conn, rng, conn->due);
            Net([&] { return lh.sel->Modify(conn->sock.get(), kNetReadable, true); });
          }
          continue;
        }
        if ((events[i].events & kNetReadable) == 0) {
          continue;
        }
        if (!Drain(conn)) {
          Close(lh, conn);
          continue;
        }
        if (!conn->expect.empty()) {
          if (conn->done) {
            Close(lh, conn);  // EOF with responses still owed
          }
          continue;
        }
        if (conn->mode == CConn::kHolder) {
          if (conn->rounds_left > 0) {
            Stage(conn, rng, sim.clock().Now());
          } else {
            --lh.active;  // parked until the next epoch
          }
        } else {
          Close(lh, conn);
        }
      }
    }
    FinishUnit();
  }

  void Close(LoadHost& lh, CConn* conn) {
    if (conn->mode == CConn::kHolder) {
      conn->expect.clear();
      conn->start.clear();
      --lh.active;
      return;  // a broken holder shows up as missing responses
    }
    Net([&] { return lh.sel->Remove(conn->sock.get()); });
    conn->sock.Reset();
    conn->done = true;
    --lh.active;
  }

  // The open-loop schedule: holder starts, churn and pipeliners in a seeded
  // order, each timed from its scheduled arrival.
  void Launch(int h) {
    Simulation& sim = world_->sim();
    Host& lg = world_->host(static_cast<size_t>(1 + h));
    LoadHost& lh = hosts_[static_cast<size_t>(h)];
    Rng& rng = lh.rng;
    std::vector<CConn::Mode> order(kHolders, CConn::kHolder);
    order.insert(order.end(), kChurn, CConn::kChurn);
    order.insert(order.end(), kPipeliners, CConn::kPipe);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    SimTime due = sim.clock().Now();
    size_t next_holder = 0;
    for (CConn::Mode mode : order) {
      due += static_cast<SimTime>(-static_cast<double>(kMeanArrival) *
                                  std::log(1.0 - rng.Unit()));
      if (due > sim.clock().Now()) {
        sim.SleepFor(due - sim.clock().Now());
      }
      if (mode == CConn::kHolder) {
        CConn* conn = lh.holders[next_holder++].get();
        conn->rounds_left = kHolderRequests;
        ++lh.active;
        Stage(conn, rng, due);
        continue;
      }
      auto conn = std::make_unique<CConn>();
      conn->mode = mode;
      conn->due = due;
      if (!Ok(OpenNonBlocking(lg, conn.get()))) {
        continue;
      }
      Net([&] { return lh.sel->Add(conn->sock.get(), kNetWritable, true, conn.get()); });
      ++lh.active;
      lh.epoch_conns.push_back(std::move(conn));
    }
    lh.launched = true;
  }

  // Blocking slow reader: three big files pipelined up front, a fourth
  // mid-drain, drained a few KB per half millisecond.
  void SlowReader(int h, int s) {
    Simulation& sim = world_->sim();
    Host& lg = world_->host(static_cast<size_t>(1 + h));
    sim.SleepFor((1 + static_cast<SimTime>(s)) * kNsPerMs);
    ComPtr<Socket> sock = lg.MakeSocket(SockType::kStream);
    if (Ok(Net([&] { return sock->Connect(SockAddr{world_->host(0).addr, kPort}); }))) {
      std::string wire;
      for (int k = 0; k < kSlowPipeline; ++k) {
        wire += "GET /big.bin HTTP/1.1\r\n\r\n";
      }
      size_t sent = 0;
      Net([&] { return sock->Send(wire.data(), wire.size(), &sent); });
      http::ResponseParser parser;
      char buf[4096];
      int taken = 0;
      int recvs = 0;
      while (taken < kSlowPipeline + 1) {
        sim.SleepFor(500 * kNsPerUs);
        if (++recvs == 8) {
          const char last[] = "GET /big.bin HTTP/1.1\r\nConnection: close\r\n\r\n";
          Net([&] { return sock->Send(last, sizeof(last) - 1, &sent); });
        }
        size_t got = 0;
        if (!Ok(Net([&] { return sock->Recv(buf, sizeof(buf), &got); })) || got == 0) {
          break;
        }
        if (probe_ != nullptr) {
          probe_->parse_bytes += got;
        }
        if (Timed(probe_, Layer::kHttpParse, [&] { return parser.Feed(buf, got); }) ==
            http::ParseStatus::kError) {
          break;
        }
        while (parser.HasResponse()) {
          http::Response resp = parser.TakeResponse();
          ++taken;
          if (resp.status == 200 && resp.body == big_) {
            ++ep_.ops;
            ep_.payload_bytes += resp.body.size();
          }
        }
      }
    }
    sock.Reset();
    FinishUnit();
  }

  int corrupt_file_;
  uint64_t seed_ = 0;
  Probe* probe_ = nullptr;
  std::vector<std::string> catalog_;
  std::string big_;
  std::deque<std::string> dyn_bodies_;  // stable addresses for `expect`
  std::vector<uint8_t> servlet_;
  Zipf zipf_{kFiles};

  std::unique_ptr<World> world_;
  DeviceRegistry disk_registry_;
  ComPtr<FileSystem> ffs_;
  std::unique_ptr<http::Server> httpd_;
  std::vector<LoadHost> hosts_;

  int setup_pending_ = -1;
  int setup_failures_ = 0;
  int epoch_pending_ = 0;
  uint64_t epoch_index_ = 0;
  SimTime epoch_end_ = 0;
  Epoch ep_;
};

}  // namespace

std::unique_ptr<Workload> MakeHttpMixed(int corrupt_file) {
  return std::make_unique<HttpMixed>(corrupt_file);
}

}  // namespace kitbench
