// C10k: one selector-driven server sustaining >= 10,000 concurrently
// established TCP connections across a switched fabric of loadgen hosts.
//
// The scale-out pieces under test, end to end:
//
//   * the learning VirtualSwitch fabric (src/machine/switch.h) — every host
//     on its own port, unicast after learning;
//   * the O(1) TCP internals — 4-tuple hash demux, listeners-only SYN index,
//     hierarchical timer wheel (no full PCB scans, no per-PCB sweeps);
//   * the SYN queue behind listen() with batched accept;
//   * the NetSelector readiness interface — ONE server fiber and one
//     harvester fiber per loadgen host service everything (a fiber per
//     connection at 256 KB of stack each would be 2.6 GB for 10k).
//
// Load is open-loop: each loadgen host launches connections with
// exponentially distributed inter-arrival times, each connection performs a
// 16-byte request/echo round trip, then HOLDS the connection open until
// every host has finished — so the server's net.tcp.established_peak gauge
// proves the concurrency floor.  Then everything tears down and the run
// must drain cleanly.
//
// Acceptance (full scale, the default): established_peak >= 10,000 with
// >= 4 loadgen hosts, demux by hash on the server's hot path, and
// p50/p99/p999 connect-to-echo latency reported to BENCH_c10k.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/base/random.h"
#include "src/testbed/testbed.h"

using namespace oskit;
using namespace oskit::testbed;
using bench::Percentile;
using bench::QueryExt;

namespace {

constexpr uint16_t kPort = 10000;
constexpr size_t kMsgBytes = 16;

struct Conn {
  ComPtr<Socket> sock;
  SimTime start_ns = 0;
  size_t got = 0;
  bool requested = false;
  bool failed = false;
};

struct HostState {
  std::vector<Conn> conns;
  int done = 0;
};

struct Options {
  int hosts = 4;
  int per_host = 2600;
  uint64_t mean_arrival_us = 400;
  const char* json_path = nullptr;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!bench::ParseFlags(argc, argv, {{"--hosts", &opt.hosts},
                                      {"--per-host", &opt.per_host},
                                      {"--mean-us", &opt.mean_arrival_us},
                                      {"--json", &opt.json_path}})) {
    return 2;
  }
  const int total = opt.hosts * opt.per_host;

  std::printf("C10k: %d loadgen hosts x %d connections = %d total, "
              "open-loop mean inter-arrival %llu us per host\n\n",
              opt.hosts, opt.per_host, total,
              static_cast<unsigned long long>(opt.mean_arrival_us));

  // Gigabit ports with a little propagation: enough serialization that the
  // switch's per-port egress queues actually queue, nowhere near enough to
  // congest a 16-byte echo workload.
  VirtualSwitch::Config sw;
  sw.port.bits_per_second = 1000ull * 1000 * 1000;
  sw.port.propagation_ns = 5 * kNsPerUs;
  World world(sw);
  Host& server = world.AddHost("server", NetConfig::kNativeBsd);
  for (int h = 0; h < opt.hosts; ++h) {
    world.AddHost("load" + std::to_string(h), NetConfig::kNativeBsd);
  }

  bool listening = false;
  int hosts_done = 0;
  int failures = 0;
  std::vector<double> latencies_us;
  latencies_us.reserve(total);
  SimTime first_start = ~SimTime{0};
  SimTime last_done = 0;
  std::vector<std::unique_ptr<HostState>> states;
  for (int h = 0; h < opt.hosts; ++h) {
    auto st = std::make_unique<HostState>();
    st->conns.resize(opt.per_host);
    states.push_back(std::move(st));
  }

  // ---- the server: one fiber, one selector, everything nonblocking ----
  world.sim().Spawn("server", [&] {
    ComPtr<Socket> listener = server.MakeSocket(SockType::kStream);
    if (!Ok(listener->Bind(SockAddr{kInetAny, kPort})) ||
        !Ok(listener->Listen(512))) {
      std::fprintf(stderr, "server: bind/listen failed\n");
      std::abort();
    }
    ComPtr<NetSelector> sel = server.stack->CreateSelector();
    sel->Add(listener.get(), kNetReadable, /*edge=*/false, nullptr);
    listening = true;

    int closed = 0;
    NetReadyEvent events[64];
    while (closed < total) {
      size_t n = 0;
      sel->Wait(events, 64, /*block=*/true, &n);
      for (size_t i = 0; i < n; ++i) {
        if (events[i].socket == listener.get()) {
          SocketExt* lext = QueryExt(listener.get());
          for (;;) {
            SockAddr peers[64];
            Socket* children[64];
            size_t accepted = 0;
            lext->AcceptBatch(peers, children, 64, &accepted);
            for (size_t k = 0; k < accepted; ++k) {
              SocketExt* ext = QueryExt(children[k]);
              ext->SetNonBlocking(true);
              ext->Release();
              sel->Add(children[k], kNetReadable, /*edge=*/false,
                       children[k]);
            }
            if (accepted < 64) {
              break;
            }
          }
          lext->Release();
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
            conn->Release();
            ++closed;
            break;
          }
          size_t sent = 0;
          conn->Send(buf, got, &sent);
        }
      }
    }
    sel->Remove(listener.get());
    // Linger past the clients' TIME_WAIT expiry so the 2MSL timers drain
    // through the wheels inside the measured simulation.
    world.sim().SleepFor(5 * kNsPerSec);
  });

  // ---- loadgen hosts: launcher + harvester fiber pairs ----
  for (int h = 0; h < opt.hosts; ++h) {
    Host& lg = world.host(1 + h);
    HostState& st = *states[h];
    auto sel = std::make_shared<ComPtr<NetSelector>>();

    world.sim().Spawn("launcher", [&, h, sel] {
      world.sim().WaitUntil([&] { return listening; });
      // Warm the ARP cache before the storm: the one-deep ARP pending
      // queue would otherwise swallow SYN bursts into 6 s retransmits.
      SimTime rtt = 0;
      lg.stack->Ping(server.addr, kNsPerSec, &rtt);
      *sel = lg.stack->CreateSelector();

      Rng rng(0x5eedc10c + static_cast<uint64_t>(h));
      for (int c = 0; c < opt.per_host; ++c) {
        SimTime gap = static_cast<SimTime>(
            -static_cast<double>(opt.mean_arrival_us * kNsPerUs) *
            std::log(1.0 - rng.Unit()));
        world.sim().SleepFor(gap);
        Conn& conn = st.conns[c];
        conn.sock = lg.MakeSocket(SockType::kStream);
        SocketExt* ext = QueryExt(conn.sock.get());
        ext->SetNonBlocking(true);
        ext->Release();
        conn.start_ns = world.sim().clock().Now();
        if (first_start == ~SimTime{0}) {
          first_start = conn.start_ns;
        }
        Error err = conn.sock->Connect(SockAddr{server.addr, kPort});
        if (err != Error::kWouldBlock && !Ok(err)) {
          conn.failed = true;
          ++failures;
          ++st.done;
          continue;
        }
        // Completion of the handshake is observed as writability.
        (*sel)->Add(conn.sock.get(), kNetWritable, /*edge=*/true, &conn);
      }
    });

    world.sim().Spawn("harvester", [&, h, sel] {
      world.sim().WaitUntil([&] { return sel->get() != nullptr; });
      NetReadyEvent events[64];
      while (st.done < opt.per_host) {
        size_t n = 0;
        (*sel)->Wait(events, 64, /*block=*/true, &n);
        for (size_t i = 0; i < n; ++i) {
          Conn& conn = *static_cast<Conn*>(events[i].token);
          if ((events[i].events & kNetError) != 0) {
            (*sel)->Remove(conn.sock.get());
            conn.failed = true;
            ++failures;
            ++st.done;
            continue;
          }
          if (!conn.requested && (events[i].events & kNetWritable) != 0) {
            char msg[kMsgBytes] = {};
            std::snprintf(msg, sizeof(msg), "h%02dc%06d", h,
                          static_cast<int>(&conn - st.conns.data()));
            size_t sent = 0;
            conn.sock->Send(msg, sizeof(msg), &sent);
            conn.requested = true;
            (*sel)->Modify(conn.sock.get(), kNetReadable, /*edge=*/true);
            continue;
          }
          if ((events[i].events & kNetReadable) != 0) {
            char buf[64];
            size_t got = 0;
            while (Ok(conn.sock->Recv(buf, sizeof(buf), &got)) && got > 0) {
              conn.got += got;
            }
            if (conn.got >= kMsgBytes) {
              SimTime now = world.sim().clock().Now();
              latencies_us.push_back(
                  static_cast<double>(now - conn.start_ns) / kNsPerUs);
              if (now > last_done) {
                last_done = now;
              }
              // Echo complete: hold the connection open (deregistered but
              // alive) until every host is done — the concurrency barrier.
              (*sel)->Remove(conn.sock.get());
              ++st.done;
            }
          }
        }
      }
      ++hosts_done;
      world.sim().WaitUntil([&] { return hosts_done >= opt.hosts; });
      // Everyone reached the barrier while every connection was still
      // established; now release them all (FIN storm, server drains EOFs).
      for (Conn& conn : st.conns) {
        conn.sock.Reset();
      }
    });
  }

  world.RunToCompletion(3600 * kNsPerSec);

  // ---- report ----
  std::sort(latencies_us.begin(), latencies_us.end());
  double p50 = Percentile(latencies_us, 0.50);
  double p99 = Percentile(latencies_us, 0.99);
  double p999 = Percentile(latencies_us, 0.999);
  double pmax = latencies_us.empty() ? 0 : latencies_us.back();
  double window_s = last_done > first_start
                        ? static_cast<double>(last_done - first_start) / kNsPerSec
                        : 0;
  double conns_per_sec = window_s > 0 ? total / window_s : 0;

  const auto& sc = server.stack->counters();
  uint64_t peak = sc.tcp_established_peak.value();
  uint64_t overflows = sc.tcp_listen_overflows.value();
  uint64_t loadgen_wheel_fired = 0;
  for (int h = 0; h < opt.hosts; ++h) {
    loadgen_wheel_fired += world.host(1 + h).stack->timer_wheel().fired();
  }

  std::printf("%-34s | %12s\n", "metric", "value");
  std::printf("-----------------------------------+-------------\n");
  std::printf("%-34s | %12d\n", "connections completed",
              static_cast<int>(latencies_us.size()));
  std::printf("%-34s | %12llu\n", "server established peak",
              static_cast<unsigned long long>(peak));
  std::printf("%-34s | %12.0f\n", "conns/sec (sim, open-loop window)",
              conns_per_sec);
  std::printf("%-34s | %12.1f\n", "connect-to-echo p50 (us)", p50);
  std::printf("%-34s | %12.1f\n", "connect-to-echo p99 (us)", p99);
  std::printf("%-34s | %12.1f\n", "connect-to-echo p999 (us)", p999);
  std::printf("%-34s | %12.1f\n", "connect-to-echo max (us)", pmax);
  std::printf("%-34s | %12llu\n", "listen overflows",
              static_cast<unsigned long long>(overflows));
  std::printf("%-34s | %12llu\n", "server pcb hash hits",
              static_cast<unsigned long long>(sc.pcb_hash_hits.value()));
  std::printf("%-34s | %12llu\n", "server wheel timers fired",
              static_cast<unsigned long long>(
                  server.stack->timer_wheel().fired()));
  std::printf("%-34s | %12llu\n", "loadgen wheel timers fired",
              static_cast<unsigned long long>(loadgen_wheel_fired));
  std::printf("%-34s | %12llu\n", "switch frames unicast",
              static_cast<unsigned long long>(
                  world.fabric().frames_unicast()));
  std::printf("%-34s | %12llu\n", "switch frames flooded",
              static_cast<unsigned long long>(
                  world.fabric().frames_flooded()));

  bench::Report report("c10k", opt.json_path);
  std::printf("\nShape checks:\n");
  report.Check("completion",
               static_cast<int>(latencies_us.size()) == total && failures == 0,
               "%zu/%d round trips, %d failures", latencies_us.size(), total,
               failures);

  // The hold-open barrier means the peak proves true concurrency.
  report.Check("concurrency", peak >= static_cast<uint64_t>(total),
               "established peak %llu >= %d held-open",
               static_cast<unsigned long long>(peak), total);

  // The headline: the C10k floor, with a real multi-host fabric.
  if (total >= 10000) {
    report.Check("c10k", peak >= 10000 && opt.hosts >= 4,
                 "%llu concurrent connections from %d hosts (floor 10000 "
                 "from >= 4)",
                 static_cast<unsigned long long>(peak), opt.hosts);
  } else {
    std::printf("  c10k:        SKIPPED (reduced scale: %d < 10000)\n", total);
  }

  // The O(1) internals carried the whole load: demux by hash and
  // connection timers through the wheel.
  report.Check("internals",
               sc.pcb_hash_hits.value() > 0 && loadgen_wheel_fired > 0,
               "%llu hash hits, %llu wheel fires",
               static_cast<unsigned long long>(sc.pcb_hash_hits.value()),
               static_cast<unsigned long long>(loadgen_wheel_fired));

  // Every registration was retired: nothing leaked in the selectors.
  report.Check("selector",
               sc.select_registered.value() == 0 &&
                   sc.select_adds.value() == static_cast<uint64_t>(total) + 1,
               "%llu adds (conns+listener), %llu still registered",
               static_cast<unsigned long long>(sc.select_adds.value()),
               static_cast<unsigned long long>(sc.select_registered.value()));

  // The switch really switched: one port per host, learning converged to
  // unicast (floods are ARP broadcasts only).
  VirtualSwitch& vs = world.fabric();
  report.Check("fabric",
               vs.port_count() == static_cast<size_t>(opt.hosts) + 1 &&
                   vs.frames_unicast() > vs.frames_flooded(),
               "%zu ports, %llu unicast vs %llu flooded", vs.port_count(),
               static_cast<unsigned long long>(vs.frames_unicast()),
               static_cast<unsigned long long>(vs.frames_flooded()));

  report.json.Set("hosts", opt.hosts)
      .Set("per_host", opt.per_host)
      .Set("total", total)
      .Set("completed", latencies_us.size())
      .Set("failures", failures)
      .Set("established_peak", peak)
      .Set("conns_per_sec", conns_per_sec)
      .Set("latency_us.p50", p50)
      .Set("latency_us.p99", p99)
      .Set("latency_us.p999", p999)
      .Set("latency_us.max", pmax)
      .Set("listen_overflows", overflows)
      .Set("pcb_hash_hits", sc.pcb_hash_hits.value())
      .Set("wheel_fired_loadgen", loadgen_wheel_fired)
      .Set("switch.ports", vs.port_count())
      .Set("switch.unicast", vs.frames_unicast())
      .Set("switch.flooded", vs.frames_flooded())
      .Set("switch.macs_learned", vs.macs_learned());
  return report.Finish();
}
