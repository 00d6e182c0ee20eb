// End-to-end network integration tests: two simulated PCs on one Ethernet
// segment exchanging real TCP/IP, in each of the paper's §5 configurations
// and across stack implementations.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/testbed/testbed.h"

namespace oskit::testbed {
namespace {

constexpr uint16_t kPort = 5001;

// Streams `total_bytes` from host 1 to host 0 and verifies content integrity
// with a rolling pattern.
void RunStreamTransfer(World& world, size_t total_bytes, size_t chunk) {
  Host& receiver = world.host(0);
  Host& sender = world.host(1);

  size_t received_total = 0;
  uint64_t rx_checksum = 0;
  uint64_t tx_checksum = 0;

  world.sim().Spawn("receiver", [&] {
    ComPtr<Socket> listener = receiver.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(5));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    EXPECT_EQ(sender.addr.value, peer.addr.value);
    std::vector<uint8_t> buf(16 * 1024);
    for (;;) {
      size_t n = 0;
      Error err = conn->Recv(buf.data(), buf.size(), &n);
      ASSERT_EQ(Error::kOk, err);
      if (n == 0) {
        break;  // EOF
      }
      for (size_t i = 0; i < n; ++i) {
        rx_checksum = rx_checksum * 131 + buf[i];
      }
      received_total += n;
    }
  });

  world.sim().Spawn("sender", [&] {
    ComPtr<Socket> conn = sender.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{receiver.addr, kPort}));
    std::vector<uint8_t> buf(chunk);
    size_t sent = 0;
    uint8_t value = 0;
    while (sent < total_bytes) {
      size_t n = chunk < total_bytes - sent ? chunk : total_bytes - sent;
      for (size_t i = 0; i < n; ++i) {
        buf[i] = value++;
        tx_checksum = tx_checksum * 131 + buf[i];
      }
      size_t actual = 0;
      ASSERT_EQ(Error::kOk, conn->Send(buf.data(), n, &actual));
      ASSERT_EQ(n, actual);
      sent += n;
    }
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });

  world.RunToCompletion();
  EXPECT_EQ(total_bytes, received_total);
  EXPECT_EQ(tx_checksum, rx_checksum);
}

struct ConfigPair {
  NetConfig receiver;
  NetConfig sender;
  const char* name;
};

class NetTransferTest : public ::testing::TestWithParam<ConfigPair> {};

TEST_P(NetTransferTest, StreamsOneMegabyteIntact) {
  World world;
  world.AddHost("rx", GetParam().receiver);
  world.AddHost("tx", GetParam().sender);
  RunStreamTransfer(world, 1 << 20, 4096);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, NetTransferTest,
    ::testing::Values(
        ConfigPair{NetConfig::kOskit, NetConfig::kOskit, "oskit"},
        ConfigPair{NetConfig::kNativeBsd, NetConfig::kNativeBsd, "bsd"},
        ConfigPair{NetConfig::kNativeLinux, NetConfig::kNativeLinux, "linux"},
        // Cross-stack interop: the Linux-idiom engine must speak the same
        // TCP as the BSD-idiom engine.
        ConfigPair{NetConfig::kNativeBsd, NetConfig::kNativeLinux, "linux_to_bsd"},
        ConfigPair{NetConfig::kNativeLinux, NetConfig::kNativeBsd, "bsd_to_linux"},
        ConfigPair{NetConfig::kOskit, NetConfig::kNativeLinux, "linux_to_oskit"}),
    [](const ::testing::TestParamInfo<ConfigPair>& info) { return info.param.name; });

TEST(NetIntegrationTest, OskitNeitherPathCopiesWithScatterGather) {
  // The post-BufIoVec mechanism, asserted directly: receive still maps
  // (skbuff grafted into an mbuf) and transmit now gathers the multi-mbuf
  // segments straight into the NIC's DMA engine — no copy either way.
  World world;
  Host& rx = world.AddHost("rx", NetConfig::kOskit);
  Host& tx = world.AddHost("tx", NetConfig::kOskit);
  RunStreamTransfer(world, 256 * 1024, 4096);

  auto check = [](Host& host, bool sent_bulk) {
    auto devices = host.registry.LookupByInterface(EtherDev::kIid);
    ASSERT_EQ(1u, devices.size());
    DeviceInfo info;
    ASSERT_EQ(Error::kOk, devices[0]->GetInfo(&info));
    auto* dev = static_cast<linuxdev::LinuxEtherDev*>(devices[0].get());
    const auto& stats = dev->counters();
    // No flatten copies on either side, ever.
    EXPECT_EQ(stats.copied, 0u);
    EXPECT_EQ(stats.copied_bytes, 0u);
    if (sent_bulk) {
      // Bulk data segments are header+cluster chains: gathered, not copied.
      EXPECT_GT(stats.sg_frames, 100u);
      // Every gather frame has at least header + payload segments.
      EXPECT_GE(stats.sg_segments, 2 * stats.sg_frames);
    } else {
      // The receiver transmits only ACKs (single-mbuf segments, mappable).
      EXPECT_GT(stats.fake_skbuff, 10u);
    }
  };
  check(tx, /*sent_bulk=*/true);
  check(rx, /*sent_bulk=*/false);
}

TEST(NetIntegrationTest, OskitForcedFlattenReproducesTable1SendCopy) {
  // The historical Table 1 mechanism: over a driver bound without gather
  // DMA, bulk transmit falls back to the glue's Read() copy into a
  // contiguous skbuff.
  World world;
  Host& rx = world.AddHost("rx", NetConfig::kOskit);
  Host& tx = world.AddHost("tx", NetConfig::kOskit);
  rx.ether_dev->WithoutGatherDma();
  tx.ether_dev->WithoutGatherDma();
  RunStreamTransfer(world, 256 * 1024, 4096);

  auto devices = tx.registry.LookupByInterface(EtherDev::kIid);
  ASSERT_EQ(1u, devices.size());
  auto* dev = static_cast<linuxdev::LinuxEtherDev*>(devices[0].get());
  const auto& stats = dev->counters();
  // Bulk data segments are header+cluster chains: unmappable, copied.
  EXPECT_GT(stats.copied, 100u);
  EXPECT_GT(stats.copied_bytes, 200u * 1024);
  EXPECT_EQ(stats.sg_frames, 0u);
}

TEST(NetIntegrationTest, EachWorldCountsItsOwnFabric) {
  // Two worlds alive at once, a hub and a switch, carrying different
  // traffic: each fabric's switch.* counters report into its own world's
  // trace environment.
  World hub_world;
  World switch_world{VirtualSwitch::Config{}};
  auto ping = [](World& world, int count) {
    Host& a = world.AddHost("a", NetConfig::kNativeBsd);
    Host& b = world.AddHost("b", NetConfig::kNativeBsd);
    world.sim().Spawn("pinger", [&a, &b, count] {
      for (int i = 0; i < count; ++i) {
        SimTime rtt = 0;
        ASSERT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
      }
    });
    world.RunToCompletion();
  };
  ping(hub_world, 1);
  ping(switch_world, 3);
  for (World* world : {&hub_world, &switch_world}) {
    EXPECT_GT(world->fabric().frames_in(), 0u);
    EXPECT_EQ(world->fabric().frames_in(),
              world->trace().registry.Value("switch.frames.in"));
  }
  EXPECT_NE(hub_world.fabric().frames_in(), switch_world.fabric().frames_in());
}

TEST(NetIntegrationTest, PingMeasuresRoundTrip) {
  EthernetWire::Config wire;
  wire.propagation_ns = 50 * kNsPerUs;  // 50 us each way
  World world(wire);
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  world.sim().Spawn("pinger", [&] {
    SimTime rtt = 0;
    Error err = a.stack->Ping(b.addr, kNsPerSec, &rtt);
    ASSERT_EQ(Error::kOk, err);
    // Two propagation delays minimum (plus ARP happened first).
    EXPECT_GE(rtt, 100 * kNsPerUs);
    EXPECT_LT(rtt, 10 * kNsPerMs);
  });
  world.RunToCompletion();
}

TEST(NetIntegrationTest, UdpDatagramsRoundTrip) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  int echoed = 0;
  world.sim().Spawn("udp-echo", [&] {
    ComPtr<Socket> sock = b.MakeSocket(SockType::kDgram);
    ASSERT_EQ(Error::kOk, sock->Bind(SockAddr{kInetAny, 7}));
    for (int i = 0; i < 10; ++i) {
      char buf[2048];
      SockAddr from;
      size_t n = 0;
      ASSERT_EQ(Error::kOk, sock->RecvFrom(buf, sizeof(buf), &from, &n));
      size_t sent = 0;
      ASSERT_EQ(Error::kOk, sock->SendTo(buf, n, from, &sent));
    }
  });
  world.sim().Spawn("udp-client", [&] {
    ComPtr<Socket> sock = a.MakeSocket(SockType::kDgram);
    for (int i = 0; i < 10; ++i) {
      char msg[64];
      int len = snprintf(msg, sizeof(msg), "datagram %d", i);
      size_t sent = 0;
      ASSERT_EQ(Error::kOk, sock->SendTo(msg, len, SockAddr{b.addr, 7}, &sent));
      char reply[64];
      SockAddr from;
      size_t n = 0;
      ASSERT_EQ(Error::kOk, sock->RecvFrom(reply, sizeof(reply), &from, &n));
      ASSERT_EQ(static_cast<size_t>(len), n);
      EXPECT_EQ(0, memcmp(msg, reply, n));
      ++echoed;
    }
  });
  world.RunToCompletion();
  EXPECT_EQ(10, echoed);
}

TEST(NetIntegrationTest, UdpFragmentationReassembles) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);

  const size_t kBig = 9000;  // several fragments
  bool received = false;
  world.sim().Spawn("rx", [&] {
    ComPtr<Socket> sock = b.MakeSocket(SockType::kDgram);
    ASSERT_EQ(Error::kOk, sock->Bind(SockAddr{kInetAny, 9}));
    std::vector<uint8_t> buf(kBig + 16);
    SockAddr from;
    size_t n = 0;
    ASSERT_EQ(Error::kOk, sock->RecvFrom(buf.data(), buf.size(), &from, &n));
    ASSERT_EQ(kBig, n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(static_cast<uint8_t>(i * 7), buf[i]);
    }
    received = true;
  });
  world.sim().Spawn("tx", [&] {
    // The BSD ARP queue holds ONE pending packet, so an unresolved first
    // burst of fragments would lose all but the last fragment — and UDP
    // never retransmits.  Real BSD behaved identically; warm the cache.
    SimTime rtt = 0;
    ASSERT_EQ(Error::kOk, a.stack->Ping(b.addr, kNsPerSec, &rtt));
    ComPtr<Socket> sock = a.MakeSocket(SockType::kDgram);
    std::vector<uint8_t> buf(kBig);
    for (size_t i = 0; i < kBig; ++i) {
      buf[i] = static_cast<uint8_t>(i * 7);
    }
    size_t sent = 0;
    ASSERT_EQ(Error::kOk, sock->SendTo(buf.data(), buf.size(), SockAddr{b.addr, 9}, &sent));
  });
  world.RunToCompletion();
  EXPECT_TRUE(received);
  EXPECT_GT(a.stack->counters().ip_frag_out, 4u);
  EXPECT_EQ(b.stack->counters().ip_reassembled, 1u);
}

// One 8-byte piece of a 24-byte UDP datagram (header + 16 payload bytes),
// framed for `to` as if from 10.0.0.99, a host that is not on the segment.
// Piece 0 carries the UDP header; piece 2 is the last fragment.
std::vector<uint8_t> UdpFragmentFrame(const Host& to, uint16_t ident,
                                      int piece) {
  constexpr uint16_t kDgramLen = net::kUdpHeaderSize + 16;
  uint8_t dgram[kDgramLen] = {};
  net::UdpHeader uh;
  uh.src_port = 4000;
  uh.dst_port = 9;
  uh.length = kDgramLen;  // checksum 0: none
  uh.Serialize(dgram);
  for (size_t i = net::kUdpHeaderSize; i < kDgramLen; ++i) {
    dgram[i] = static_cast<uint8_t>(ident + i);
  }
  std::vector<uint8_t> frame(kEtherHeaderSize + net::kIpHeaderSize + 8);
  net::EtherHeader eh;
  eh.dst = to.machine->nics()[0]->mac();
  eh.src = EtherAddr{{0x02, 0, 0, 0, 0, 99}};
  eh.type = net::kEtherTypeIp;
  eh.Serialize(frame.data());
  net::Ipv4Header ip;
  ip.total_len = static_cast<uint16_t>(net::kIpHeaderSize + 8);
  ip.ident = ident;
  ip.frag = static_cast<uint16_t>(piece | (piece < 2 ? net::kIpFlagMoreFragments : 0));
  ip.proto = net::kIpProtoUdp;
  ip.src = HostAddr(98);
  ip.dst = to.addr;
  ip.Serialize(frame.data() + kEtherHeaderSize);
  std::memcpy(frame.data() + kEtherHeaderSize + net::kIpHeaderSize,
              dgram + 8 * piece, 8);
  return frame;
}

TEST(NetIntegrationTest, FragmentsPastTheReassemblyDeadlineAreDiscarded) {
  // A datagram's fragments must all arrive within 30 s of the first; the
  // stack's periodic sweep discards a queue past that deadline, so a late
  // tail starts a new queue that never completes.
  World world;
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);
  ComPtr<Socket> sock;
  auto inject = [&](uint16_t ident, int piece) {
    std::vector<uint8_t> frame = UdpFragmentFrame(b, ident, piece);
    const uint8_t* chunk = frame.data();
    size_t len = frame.size();
    world.fabric().Transmit(nullptr, &chunk, &len, 1);
  };
  world.sim().Spawn("fragments", [&] {
    sock = b.MakeSocket(SockType::kDgram);
    ASSERT_EQ(Error::kOk, sock->Bind(SockAddr{kInetAny, 9}));
    inject(7, 0);  // late datagram: its tail comes after the deadline
    inject(7, 1);
    world.sim().SleepFor(31 * kNsPerSec);
    inject(7, 2);
    inject(8, 0);  // on-time datagram: its tail comes after 29 s
    inject(8, 1);
    world.sim().SleepFor(29 * kNsPerSec);
    inject(8, 2);
    world.sim().SleepFor(kNsPerSec);
  });
  world.RunToCompletion();

  EXPECT_EQ(6u, b.stack->counters().ip_frags_in.value());
  EXPECT_EQ(1u, b.stack->counters().ip_reassembled.value());
  void* extp = nullptr;
  ASSERT_EQ(Error::kOk, sock->Query(SocketExt::kIid, &extp));
  static_cast<SocketExt*>(extp)->SetNonBlocking(true);
  static_cast<SocketExt*>(extp)->Release();
  uint8_t buf[64];
  SockAddr from;
  size_t n = 0;
  ASSERT_EQ(Error::kOk, sock->RecvFrom(buf, sizeof(buf), &from, &n));
  ASSERT_EQ(16u, n);  // datagram 8, whole
  EXPECT_EQ(HostAddr(98).value, from.addr.value);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(8 + net::kUdpHeaderSize + i), buf[i]);
  }
  EXPECT_EQ(Error::kWouldBlock, sock->RecvFrom(buf, sizeof(buf), &from, &n));
}

TEST(NetIntegrationTest, ConnectionRefusedGetsRst) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);
  Host& b = world.AddHost("b", NetConfig::kNativeBsd);
  (void)b;

  world.sim().Spawn("client", [&] {
    ComPtr<Socket> sock = a.MakeSocket(SockType::kStream);
    Error err = sock->Connect(SockAddr{world.host(1).addr, 4242});
    EXPECT_EQ(Error::kConnRefused, err);
  });
  world.RunToCompletion();
}

// TCP under adverse wire conditions: loss, duplication, reordering.  The
// BSD-idiom stack must deliver the byte stream intact via retransmission,
// reassembly and duplicate suppression.
struct FaultCase {
  uint32_t loss;
  uint32_t dup;
  SimTime jitter;
  uint64_t seed;
  const char* name;
};

class TcpFaultTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(TcpFaultTest, StreamSurvives) {
  const FaultCase& fc = GetParam();
  EthernetWire::Config wire;
  wire.loss_percent = fc.loss;
  wire.duplicate_percent = fc.dup;
  wire.reorder_jitter_ns = fc.jitter;
  wire.fault_seed = fc.seed;
  World world(wire);
  world.AddHost("rx", NetConfig::kNativeBsd);
  world.AddHost("tx", NetConfig::kNativeBsd);
  RunStreamTransfer(world, 128 * 1024, 3000);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, TcpFaultTest,
    ::testing::Values(FaultCase{5, 0, 0, 11, "loss5"},
                      FaultCase{0, 10, 0, 12, "dup10"},
                      FaultCase{0, 0, 200 * kNsPerUs, 13, "reorder"},
                      FaultCase{3, 3, 100 * kNsPerUs, 14, "mixed"},
                      FaultCase{10, 5, 300 * kNsPerUs, 15, "harsh"}),
    [](const ::testing::TestParamInfo<FaultCase>& info) { return info.param.name; });

}  // namespace
}  // namespace oskit::testbed
