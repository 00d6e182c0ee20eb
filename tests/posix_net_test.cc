// The §5 POSIX path end to end: "the C library's socket call uses a
// client-provided socket factory interface to create new sockets", so ttcp
// compiled against the POSIX API runs unchanged on any stack that provides
// the socket and socket-factory interfaces.  These tests drive the network
// entirely through PosixIo — the same calls the paper's ttcp made.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/libc/posix.h"
#include "src/testbed/testbed.h"

namespace oskit::testbed {
namespace {

constexpr uint16_t kPort = 7000;

class PosixNetTest : public ::testing::TestWithParam<NetConfig> {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    world_->AddHost("a", GetParam());
    world_->AddHost("b", GetParam());
  }

  std::unique_ptr<World> world_;
};

TEST_P(PosixNetTest, TtcpStyleTransferThroughPosixCalls) {
  constexpr size_t kBlocks = 64;
  constexpr size_t kBlockSize = 4096;
  size_t received = 0;

  world_->sim().Spawn("posix-server", [&] {
    // posix_set_socketcreator (§5): register the stack's factory.
    libc::PosixIo posix;
    posix.SetSocketCreator(world_->host(0).socket_factory);
    int listener = posix.Socket(SockDomain::kInet, SockType::kStream);
    ASSERT_GE(listener, 0);
    ASSERT_EQ(0, posix.Bind(listener, SockAddr{kInetAny, kPort}));
    ASSERT_EQ(0, posix.Listen(listener, 2));
    SockAddr peer;
    int conn = posix.Accept(listener, &peer);
    ASSERT_GE(conn, 0);
    char buf[8192];
    long n;
    while ((n = posix.Read(conn, buf, sizeof(buf))) > 0) {
      received += static_cast<size_t>(n);
    }
    EXPECT_EQ(0, n);  // orderly EOF
    EXPECT_EQ(0, posix.Close(conn));
    EXPECT_EQ(0, posix.Close(listener));
  });

  world_->sim().Spawn("posix-client", [&] {
    libc::PosixIo posix;
    posix.SetSocketCreator(world_->host(1).socket_factory);
    int fd = posix.Socket(SockDomain::kInet, SockType::kStream);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(0, posix.Connect(fd, SockAddr{world_->host(0).addr, kPort}));
    char block[kBlockSize];
    memset(block, 'T', sizeof(block));
    for (size_t i = 0; i < kBlocks; ++i) {
      ASSERT_EQ(static_cast<long>(kBlockSize), posix.Write(fd, block, kBlockSize));
    }
    ASSERT_EQ(0, posix.Shutdown(fd, SockShutdown::kWrite));
    EXPECT_EQ(0, posix.Close(fd));
  });

  world_->RunToCompletion();
  EXPECT_EQ(kBlocks * kBlockSize, received);
}

INSTANTIATE_TEST_SUITE_P(Stacks, PosixNetTest,
                         ::testing::Values(NetConfig::kOskit, NetConfig::kOskitNapi,
                                           NetConfig::kNativeBsd, NetConfig::kNativeLinux),
                         [](const ::testing::TestParamInfo<NetConfig>& info) {
                           switch (info.param) {
                             case NetConfig::kOskit:
                               return "oskit";
                             case NetConfig::kOskitNapi:
                               return "oskit_napi";
                             case NetConfig::kNativeBsd:
                               return "bsd";
                             case NetConfig::kNativeLinux:
                               return "linux";
                           }
                           return "?";
                         });

TEST(PosixNetSingleTest, SignalAndSelectAreNullFunctions) {
  // §5: ttcp "uses signal and select ... they are only used to handle
  // exceptional conditions and can be implemented as null functions
  // without affecting the results."
  libc::PosixIo posix;
  EXPECT_EQ(0, posix.SignalStub(2));
  EXPECT_EQ(0, posix.SelectStub(4));
}

TEST(PosixNetSingleTest, SocketErrorsMapToNegatedCodes) {
  World world;
  world.AddHost("a", NetConfig::kNativeBsd);
  world.AddHost("b", NetConfig::kNativeBsd);
  world.sim().Spawn("t", [&] {
    libc::PosixIo posix;
    posix.SetSocketCreator(world.host(0).socket_factory);
    int fd = posix.Socket(SockDomain::kInet, SockType::kStream);
    ASSERT_GE(fd, 0);
    // Connecting to a port nobody listens on.
    EXPECT_EQ(-static_cast<int>(Error::kConnRefused),
              posix.Connect(fd, SockAddr{world.host(1).addr, 4321}));
    posix.Close(fd);
    // File calls on a socket fd.
    fd = posix.Socket(SockDomain::kInet, SockType::kDgram);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(-static_cast<long>(Error::kBadF), posix.Lseek(fd, 0, libc::kSeekSet));
    posix.Close(fd);
    // Socket calls on a bad fd.
    EXPECT_EQ(-static_cast<int>(Error::kBadF), posix.Listen(42, 1));
    EXPECT_EQ(-static_cast<int>(Error::kBadF), posix.Accept(42, nullptr));
  });
  world.RunToCompletion();
}

TEST(PosixNetSingleTest, UdpThroughPosix) {
  World world;
  world.AddHost("a", NetConfig::kNativeBsd);
  world.AddHost("b", NetConfig::kNativeBsd);
  std::string got;
  world.sim().Spawn("rx", [&] {
    libc::PosixIo posix;
    posix.SetSocketCreator(world.host(0).socket_factory);
    int fd = posix.Socket(SockDomain::kInet, SockType::kDgram);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(0, posix.Bind(fd, SockAddr{kInetAny, 99}));
    char buf[64];
    long n = posix.Recv(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.assign(buf, static_cast<size_t>(n));
  });
  world.sim().Spawn("tx", [&] {
    libc::PosixIo posix;
    posix.SetSocketCreator(world.host(1).socket_factory);
    int fd = posix.Socket(SockDomain::kInet, SockType::kDgram);
    ASSERT_GE(fd, 0);
    // Connected-UDP so plain Write works.
    ASSERT_EQ(0, posix.Connect(fd, SockAddr{world.host(0).addr, 99}));
    ASSERT_EQ(9, posix.Write(fd, "datagram!", 9));
  });
  world.RunToCompletion();
  EXPECT_EQ("datagram!", got);
}

}  // namespace
}  // namespace oskit::testbed
