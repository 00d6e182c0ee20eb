// The §5 benchmark workloads: ttcp (bandwidth) and rtcp (latency), reusable
// by the examples and the Table 1/2 benchmark harnesses.
//
// Timing: the simulated world runs on one host thread, so the wall-clock
// time of a run measures the TOTAL software work of both endpoints plus the
// harness — a consistent basis for comparing stack configurations (which is
// all Tables 1 and 2 claim).  Simulated time captures wire-model effects
// (bandwidth/latency) instead.

#ifndef OSKIT_SRC_TESTBED_TTCP_H_
#define OSKIT_SRC_TESTBED_TTCP_H_

#include <chrono>

#include "src/testbed/testbed.h"

namespace oskit::testbed {

// Runs the world until every fiber is done (within an hour of simulated
// time) and records the host and simulated time that took in `result`'s
// wall_seconds and sim_ns.
template <typename Result>
void RunTimed(World& world, Result* result) {
  auto start = std::chrono::steady_clock::now();
  SimTime sim_start = world.sim().clock().Now();
  world.RunToCompletion(/*deadline=*/sim_start + 3600 * kNsPerSec);
  result->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result->sim_ns = world.sim().clock().Now() - sim_start;
}

struct TtcpResult {
  size_t bytes_transferred = 0;
  double wall_seconds = 0;     // host time for the whole world
  SimTime sim_ns = 0;          // simulated time elapsed
  uint64_t sender_glue_copies = 0;   // OSKit config: mbuf->skbuff copies
  uint64_t sender_glue_copied_bytes = 0;
  uint64_t sender_glue_sg_frames = 0;  // OSKit config: gather transmits
  uint64_t sender_glue_sg_segments = 0;
  // The rate from the moment the receiver first held half the bytes to the
  // end: past slow start, so it reads the saturated rate.
  double second_half_mbit_per_sec_sim = 0;

  double MbitPerSecWall() const {
    return wall_seconds > 0 ? bytes_transferred * 8.0 / wall_seconds / 1e6 : 0;
  }
  double MbitPerSecSim() const {
    return sim_ns > 0 ? bytes_transferred * 8.0 / (sim_ns / 1e9) / 1e6 : 0;
  }
};

// Streams block_count blocks of block_size bytes from host 1 to host 0
// (paper: 131072 blocks of 4096 bytes).  Verifies delivery length.
TtcpResult RunTtcp(World& world, size_t block_size, size_t block_count);

struct RtcpResult {
  uint64_t round_trips = 0;
  double wall_seconds = 0;
  SimTime sim_ns = 0;

  double UsecPerRoundTripWall() const {
    return round_trips > 0 ? wall_seconds * 1e6 / round_trips : 0;
  }
  double UsecPerRoundTripSim() const {
    return round_trips > 0 ? (sim_ns / 1e3) / round_trips : 0;
  }
};

// 1-byte request/response ping-pong between host 1 (client) and host 0
// (server), the paper's rtcp.
RtcpResult RunRtcp(World& world, uint64_t round_trips);

}  // namespace oskit::testbed

#endif  // OSKIT_SRC_TESTBED_TTCP_H_
