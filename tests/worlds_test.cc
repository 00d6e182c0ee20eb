// Worlds on host threads.  A world shares nothing with another world: each
// kernel owns (or is handed) its own trace and fault environments, and the
// kit's pools and the panic handler are per thread.  So worlds run on
// separate host threads end exactly as they do one after another, and a
// fault armed in one world never fires in another.  The CI's tsan job builds
// this test under -fsanitize=thread.

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "src/testbed/testbed.h"

namespace oskit::testbed {
namespace {

constexpr uint16_t kPort = 5001;
constexpr size_t kBytes = 512 * 1024;
constexpr size_t kBlock = 4096;

struct WorldResult {
  SimTime end = 0;
  uint64_t events = 0;
  size_t received = 0;
  std::vector<trace::CounterSnapshot> hosts;  // per host, in host order
  trace::CounterSnapshot fabric;
  uint64_t host_fires = 0;  // fires in the hosts' kernels' own envs
};

// One ttcp run: `config` on both ends of a lossy 100 Mbit hub, 512 KB in
// 4 KB blocks from host 1 to host 0.
WorldResult RunTtcp(NetConfig config, fault::FaultEnv* fault = nullptr) {
  EthernetWire::Config wc;
  wc.bits_per_second = 100'000'000;
  wc.propagation_ns = 5 * kNsPerUs;
  wc.loss_percent = 2;
  wc.fault_seed = 7;
  World world(wc, fault);
  Host& rx = world.AddHost("rx", config);
  Host& tx = world.AddHost("tx", config);
  WorldResult result;
  world.sim().Spawn("ttcp-r", [&] {
    ComPtr<Socket> listener = rx.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, listener->Bind(SockAddr{kInetAny, kPort}));
    ASSERT_EQ(Error::kOk, listener->Listen(1));
    SockAddr peer;
    ComPtr<Socket> conn;
    ASSERT_EQ(Error::kOk, listener->Accept(&peer, conn.Receive()));
    std::vector<uint8_t> buf(16 * 1024);
    size_t n = 0;
    while (Ok(conn->Recv(buf.data(), buf.size(), &n)) && n > 0) {
      result.received += n;
    }
  });
  world.sim().Spawn("ttcp-t", [&] {
    ComPtr<Socket> conn = tx.MakeSocket(SockType::kStream);
    ASSERT_EQ(Error::kOk, conn->Connect(SockAddr{rx.addr, kPort}));
    std::vector<uint8_t> block(kBlock, 0x5a);
    for (size_t sent = 0; sent < kBytes; sent += kBlock) {
      size_t actual = 0;
      ASSERT_EQ(Error::kOk, conn->Send(block.data(), block.size(), &actual));
    }
    ASSERT_EQ(Error::kOk, conn->Shutdown(SockShutdown::kWrite));
  });
  world.RunToCompletion();
  result.end = world.sim().clock().Now();
  result.events = world.sim().clock().events_run();
  for (size_t i = 0; i < world.host_count(); ++i) {
    result.hosts.push_back(world.host(i).trace.registry.Snapshot());
    result.host_fires += world.host(i).kernel->fault().total_fires();
  }
  result.fabric = world.trace().registry.Snapshot();
  return result;
}

constexpr std::array<NetConfig, 4> kConfigs = {
    NetConfig::kOskit, NetConfig::kNativeBsd, NetConfig::kNativeLinux,
    NetConfig::kOskitNapi};

TEST(WorldsOnThreadsTest, FourThreadedWorldsEndAsTheirSerialRuns) {
  std::array<WorldResult, kConfigs.size()> serial;
  for (size_t i = 0; i < kConfigs.size(); ++i) {
    serial[i] = RunTtcp(kConfigs[i]);
  }
  std::array<WorldResult, kConfigs.size()> threaded;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kConfigs.size(); ++i) {
    threads.emplace_back([&threaded, i] { threaded[i] = RunTtcp(kConfigs[i]); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t i = 0; i < kConfigs.size(); ++i) {
    SCOPED_TRACE(static_cast<int>(kConfigs[i]));
    EXPECT_EQ(kBytes, serial[i].received);
    EXPECT_GT(serial[i].fabric.at("switch.frames.dropped"), 0u);  // lossy
    EXPECT_EQ(serial[i].end, threaded[i].end);
    EXPECT_EQ(serial[i].events, threaded[i].events);
    EXPECT_EQ(serial[i].received, threaded[i].received);
    EXPECT_EQ(serial[i].hosts, threaded[i].hosts);
    EXPECT_EQ(serial[i].fabric, threaded[i].fabric);
  }
}

TEST(WorldsOnThreadsTest, FaultArmedInOneWorldFiresOnlyThere) {
  fault::FaultEnv armed(3);
  fault::FaultSpec spec;
  spec.probability_percent = 5;
  armed.Arm("nic.tx.drop", spec);
  WorldResult with_faults;
  WorldResult without;
  std::thread a([&] { with_faults = RunTtcp(NetConfig::kOskit, &armed); });
  std::thread b([&] { without = RunTtcp(NetConfig::kOskit); });
  a.join();
  b.join();
  EXPECT_EQ(kBytes, with_faults.received);
  EXPECT_EQ(kBytes, without.received);
  EXPECT_GT(armed.fires("nic.tx.drop"), 0u);
  // The handed env reports into its world's trace(), once for all hosts.
  EXPECT_EQ(armed.fires("nic.tx.drop"), with_faults.fabric.at("fault.nic.tx.drop"));
  EXPECT_EQ(0u, without.host_fires);
  EXPECT_EQ(0u, without.fabric.count("fault.nic.tx.drop"));
  for (const trace::CounterSnapshot& host : without.hosts) {
    EXPECT_EQ(0u, host.count("fault.nic.tx.drop"));
  }
  EXPECT_EQ(without.end, RunTtcp(NetConfig::kOskit).end);
}

}  // namespace
}  // namespace oskit::testbed
