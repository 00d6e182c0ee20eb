// ttcp_rtcp: the paper's §5 pair on one shared 100 Mbps EthernetWire, two
// kOskit hosts (FreeBSD stack over the Linux driver through COM glue, SG
// send, per-frame IRQs).
//
// Each epoch streams a seeded number of 4 KB ttcp blocks carrying a seeded
// pattern that the receiver checks, then runs a seeded number of 1-byte
// rtcp round trips whose echoed bytes are checked too.  The receiver reads
// in seeded chunk sizes and spends a seeded time (0-200 us, below the wire
// time of a chunk) on each, as an application would.  An operation is one
// verified block or one verified round trip; its simulated latency runs
// from the sender's Send to the receiver's check (block) or over the whole
// round trip.  fs, http and vm do nothing here, so changes to them must not
// move this workload.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/base/random.h"
#include "src/testbed/testbed.h"

namespace kitbench {
namespace {

using namespace oskit;
using namespace oskit::testbed;

constexpr size_t kBlock = 4096;
constexpr size_t kPool = 16;  // distinct seeded blocks the stream cycles

class TtcpRtcp final : public Workload {
 public:
  void Setup(uint64_t seed, Probe* probe) override {
    seed_ = seed;
    probe_ = probe;
    for (size_t i = 0; i < kPool; ++i) {
      pool_.push_back(PatternString(Mix(seed, i), kBlock));
    }
    uint64_t build0 = HostNowNs();
    EthernetWire::Config wire;
    wire.bits_per_second = 100 * 1000 * 1000;
    wire.propagation_ns = 5 * kNsPerUs;
    world_ = std::make_unique<World>(wire);
    world_->AddHost("ttcp-recv", NetConfig::kOskit);
    world_->AddHost("ttcp-send", NetConfig::kOskit);
    if (probe_ != nullptr) {
      probe_->set_sim(&world_->sim());
      probe_->world_build_ns += HostNowNs() - build0;
      ++probe_->world_builds;
    }
    // Resolve both ARP entries before anything is measured.
    world_->sim().Spawn("arp", [this] {
      SimTime rtt = 0;
      world_->host(1).stack->Ping(world_->host(0).addr, kNsPerSec, &rtt);
    });
    world_->RunToCompletion();
  }

  Epoch RunEpoch(uint64_t index) override {
    Epoch e;
    Simulation& sim = world_->sim();
    Rng rng(Mix(seed_, index));
    const size_t blocks = 1792 + rng.Below(512);
    const size_t trips = 384 + rng.Below(256);
    const uint64_t stream = Mix(seed_ ^ 0x7cc9, index);
    const uint16_t port = static_cast<uint16_t>(5001 + 2 * (index % 2000));
    e.attempted = blocks + trips;

    Host& recv = world_->host(0);
    Host& send = world_->host(1);
    std::vector<SimTime> sent_at(blocks, 0);
    size_t verified_blocks = 0;
    size_t verified_trips = 0;
    SimTime bulk_start = 0;
    SimTime bulk_end = 0;

    auto block_of = [&](size_t b) -> const std::string& {
      return pool_[Mix(stream, b) % kPool];
    };

    // The rtcp pair is spawned by the ttcp receiver once the stream ended:
    // the phases are sequential without any polling barrier.
    auto start_rtcp = [&] {
      sim.Spawn("rtcp-s", [&] {
        ComPtr<Socket> listener = recv.MakeSocket(SockType::kStream);
        Net([&] { return listener->Bind(SockAddr{kInetAny, uint16_t(port + 1)}); });
        Net([&] { return listener->Listen(1); });
        sim.Spawn("rtcp-c", [&] {
          ComPtr<Socket> conn = send.MakeSocket(SockType::kStream);
          if (!Ok(Net([&] { return conn->Connect(SockAddr{recv.addr, uint16_t(port + 1)}); }))) {
            return;
          }
          Rng bytes(Mix(stream, 0x5151));
          for (size_t i = 0; i < trips; ++i) {
            char ping = static_cast<char>(bytes.Next());
            char pong = 0;
            size_t n = 0;
            SimTime t0 = sim.clock().Now();
            if (!Ok(Net([&] { return conn->Send(&ping, 1, &n); })) || n != 1 ||
                !Ok(Net([&] { return conn->Recv(&pong, 1, &n); })) || n != 1) {
              break;
            }
            if (pong == ping) {
              ++verified_trips;
              e.lat_ns.push_back(sim.clock().Now() - t0);
            }
          }
          Net([&] { return conn->Shutdown(SockShutdown::kWrite); });
        });
        SockAddr peer;
        ComPtr<Socket> conn;
        if (!Ok(Net([&] { return listener->Accept(&peer, conn.Receive()); }))) {
          return;
        }
        char byte = 0;
        size_t n = 0;
        while (Ok(Net([&] { return conn->Recv(&byte, 1, &n); })) && n == 1) {
          Net([&] { return conn->Send(&byte, 1, &n); });
        }
      });
    };

    sim.Spawn("ttcp-r", [&] {
      ComPtr<Socket> listener = recv.MakeSocket(SockType::kStream);
      Net([&] { return listener->Bind(SockAddr{kInetAny, port}); });
      Net([&] { return listener->Listen(1); });
      sim.Spawn("ttcp-t", [&] {
        ComPtr<Socket> conn = send.MakeSocket(SockType::kStream);
        if (!Ok(Net([&] { return conn->Connect(SockAddr{recv.addr, port}); }))) {
          return;
        }
        bulk_start = sim.clock().Now();
        for (size_t b = 0; b < blocks; ++b) {
          const std::string& data = block_of(b);
          size_t actual = 0;
          sent_at[b] = sim.clock().Now();
          if (!Ok(Net([&] { return conn->Send(data.data(), kBlock, &actual); })) ||
              actual != kBlock) {
            break;
          }
        }
        Net([&] { return conn->Shutdown(SockShutdown::kWrite); });
      });
      SockAddr peer;
      ComPtr<Socket> conn;
      if (Ok(Net([&] { return listener->Accept(&peer, conn.Receive()); }))) {
        Rng reads(Mix(stream, 0x4ead));
        std::vector<char> buf(16 * 1024);
        size_t offset = 0;
        bool corrupt = false;
        for (;;) {
          size_t want = reads.Range(1024, buf.size());
          size_t n = 0;
          if (!Ok(Net([&] { return conn->Recv(buf.data(), want, &n); })) || n == 0) {
            break;
          }
          // Check the chunk against the pattern, block piece by piece.
          size_t done = 0;
          while (done < n && !corrupt) {
            size_t b = (offset + done) / kBlock;
            size_t in = (offset + done) % kBlock;
            size_t piece = std::min(kBlock - in, n - done);
            if (b >= blocks ||
                std::memcmp(buf.data() + done, block_of(b).data() + in, piece) != 0) {
              corrupt = true;
              break;
            }
            done += piece;
            if (in + piece == kBlock) {
              ++verified_blocks;
              e.lat_ns.push_back(sim.clock().Now() - sent_at[b]);
            }
          }
          offset += n;
          sim.SleepFor(reads.Below(200) * kNsPerUs);
        }
        bulk_end = sim.clock().Now();
        e.payload_bytes = verified_blocks * kBlock;
      }
      start_rtcp();
    });

    SimTime t0 = sim.clock().Now();
    size_t events0 = sim.clock().events_run();
    auto before0 = recv.trace.registry.Snapshot();
    auto before1 = send.trace.registry.Snapshot();
    world_->RunToCompletion(t0 + 600 * kNsPerSec);
    AddCounterDelta(before0, recv.trace.registry.Snapshot(), "recv/", &e.counters);
    AddCounterDelta(before1, send.trace.registry.Snapshot(), "send/", &e.counters);
    e.events = sim.clock().events_run() - events0;
    e.sim_ns = sim.clock().Now() - t0;
    e.payload_sim_ns = bulk_end > bulk_start ? bulk_end - bulk_start : 0;
    e.ops = verified_blocks + verified_trips;
    e.failed = e.attempted - e.ops;
    e.tx_payload_bytes = blocks * kBlock + 2 * trips;
    return e;
  }

  uint64_t sim_epochs() const override { return 8; }

 private:
  template <typename Fn>
  Error Net(Fn&& fn) {
    return Timed(probe_, Layer::kNet, fn);
  }

  uint64_t seed_ = 0;
  Probe* probe_ = nullptr;
  std::vector<std::string> pool_;
  std::unique_ptr<World> world_;
};

}  // namespace

std::unique_ptr<Workload> MakeTtcpRtcp() { return std::make_unique<TtcpRtcp>(); }

}  // namespace kitbench
