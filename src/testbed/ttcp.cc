#include "src/testbed/ttcp.h"

#include <vector>

#include "src/base/panic.h"

namespace oskit::testbed {

namespace {

constexpr uint16_t kTtcpPort = 5001;
constexpr uint16_t kRtcpPort = 5002;

}  // namespace

TtcpResult RunTtcp(World& world, size_t block_size, size_t block_count) {
  Host& receiver = world.host(0);
  Host& sender = world.host(1);
  TtcpResult result;
  size_t total = block_size * block_count;
  size_t received = 0;
  size_t half_bytes = 0;  // bytes held when the receiver first had half
  SimTime half_at = 0;

  world.sim().Spawn("ttcp-r", [&] {
    ComPtr<Socket> listener = receiver.MakeSocket(SockType::kStream);
    OSKIT_ASSERT(Ok(listener->Bind(SockAddr{kInetAny, kTtcpPort})));
    OSKIT_ASSERT(Ok(listener->Listen(1)));
    SockAddr peer;
    ComPtr<Socket> conn;
    OSKIT_ASSERT(Ok(listener->Accept(&peer, conn.Receive())));
    std::vector<uint8_t> buf(16 * 1024);
    for (;;) {
      size_t n = 0;
      Error err = conn->Recv(buf.data(), buf.size(), &n);
      OSKIT_ASSERT(Ok(err));
      if (n == 0) {
        break;
      }
      received += n;
      if (half_bytes == 0 && received * 2 >= total) {
        half_bytes = received;
        half_at = world.sim().clock().Now();
      }
    }
  });

  world.sim().Spawn("ttcp-t", [&] {
    ComPtr<Socket> conn = sender.MakeSocket(SockType::kStream);
    OSKIT_ASSERT(Ok(conn->Connect(SockAddr{receiver.addr, kTtcpPort})));
    std::vector<uint8_t> block(block_size, 0x5a);
    for (size_t i = 0; i < block_count; ++i) {
      size_t actual = 0;
      OSKIT_ASSERT(Ok(conn->Send(block.data(), block.size(), &actual)));
      OSKIT_ASSERT(actual == block.size());
    }
    OSKIT_ASSERT(Ok(conn->Shutdown(SockShutdown::kWrite)));
  });

  RunTimed(world, &result);
  OSKIT_ASSERT_MSG(received == total, "ttcp byte-count mismatch");
  result.bytes_transferred = received;
  result.second_half_mbit_per_sec_sim =
      (received - half_bytes) * 8.0 / ((world.sim().clock().Now() - half_at) / 1e9) / 1e6;
  // Sender-side glue-copy statistics, read from the host's trace counter
  // registry rather than by downcasting the device; a native host has no
  // glue counters and reads 0.
  const trace::CounterRegistry& glue = sender.trace.registry;
  result.sender_glue_copies = glue.Value("glue.send.copied");
  result.sender_glue_copied_bytes = glue.Value("glue.send.copied_bytes");
  result.sender_glue_sg_frames = glue.Value("glue.send.sg_frames");
  result.sender_glue_sg_segments = glue.Value("glue.send.sg_segments");
  return result;
}

RtcpResult RunRtcp(World& world, uint64_t round_trips) {
  Host& server = world.host(0);
  Host& client = world.host(1);
  RtcpResult result;

  world.sim().Spawn("rtcp-s", [&] {
    ComPtr<Socket> listener = server.MakeSocket(SockType::kStream);
    OSKIT_ASSERT(Ok(listener->Bind(SockAddr{kInetAny, kRtcpPort})));
    OSKIT_ASSERT(Ok(listener->Listen(1)));
    SockAddr peer;
    ComPtr<Socket> conn;
    OSKIT_ASSERT(Ok(listener->Accept(&peer, conn.Receive())));
    char byte = 0;
    for (;;) {
      size_t n = 0;
      Error err = conn->Recv(&byte, 1, &n);
      OSKIT_ASSERT(Ok(err));
      if (n == 0) {
        break;
      }
      OSKIT_ASSERT(Ok(conn->Send(&byte, 1, &n)));
    }
  });

  world.sim().Spawn("rtcp-c", [&] {
    ComPtr<Socket> conn = client.MakeSocket(SockType::kStream);
    OSKIT_ASSERT(Ok(conn->Connect(SockAddr{server.addr, kRtcpPort})));
    char byte = '!';
    for (uint64_t i = 0; i < round_trips; ++i) {
      size_t n = 0;
      OSKIT_ASSERT(Ok(conn->Send(&byte, 1, &n)));
      OSKIT_ASSERT(Ok(conn->Recv(&byte, 1, &n)));
      OSKIT_ASSERT(n == 1);
    }
    OSKIT_ASSERT(Ok(conn->Shutdown(SockShutdown::kWrite)));
  });

  RunTimed(world, &result);
  result.round_trips = round_trips;
  return result;
}

}  // namespace oskit::testbed
