// COM conformance sweep (§4.4): every exported interface implementation —
// native objects and the src/secure wrappers alike — must (a) return
// kNoInterface with a nulled out-pointer for GUIDs it does not implement,
// (b) hand back a usable, independently-releasable reference for GUIDs it
// does, and (c) keep AddRef/Release pairing exact through wrapper
// delegation.  The wrappers additionally must NOT forward unknown GUIDs to
// their inner object: an extension interface the wrapper does not interpose
// on (MemBlkIo's BlkIoBarrier, say) would otherwise be an unwrapped path
// around the checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <string_view>
#include <vector>

#include "src/aio/stack.h"
#include "src/boot/memfs.h"
#include "src/com/memblkio.h"
#include "src/dev/freebsd/freebsd_char.h"
#include "src/dev/linux/linux_ide.h"
#include "src/diskpart/diskpart.h"
#include "src/fs/cache.h"
#include "src/fs/ffs.h"
#include "src/net/mbuf_bufio.h"
#include "src/secure/interposer.h"
#include "src/secure/wrap.h"
#include "src/testbed/testbed.h"

namespace oskit::testbed {
namespace {

using secure::Budget;
using secure::NetGuard;
using secure::Principal;
using secure::PrincipalRegistry;

constexpr Guid kBogusGuid = MakeGuid(0xdeadbeef, 0xdead, 0xbeef, 0x01, 0x02,
                                     0x03, 0x04, 0x05, 0x06, 0x07, 0x08);

// Rule (a): an unimplemented GUID yields kNoInterface and *out == nullptr
// (poisoned beforehand so a lazy implementation can't pass by accident).
template <typename Obj>
void ExpectUnknownGuidRejected(Obj* obj) {
  void* out = reinterpret_cast<void*>(0x1);
  EXPECT_EQ(Error::kNoInterface, obj->Query(kBogusGuid, &out));
  EXPECT_EQ(nullptr, out);
}

template <typename T, typename Obj>
void ExpectNoInterface(Obj* obj) {
  T* p = reinterpret_cast<T*>(0x1);
  EXPECT_EQ(Error::kNoInterface, QueryFor(obj, &p));
  EXPECT_EQ(nullptr, p);
}

// Rule (b): a successful Query added one reference on the caller's behalf;
// releasing through the returned pointer must balance it without killing
// the object (a fresh Query still succeeds afterwards).
template <typename T, typename Obj>
void ExpectQueryRoundTrip(Obj* obj) {
  T* p = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(obj, &p));
  ASSERT_NE(nullptr, p);
  p->Release();
  T* again = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(obj, &again));
  ASSERT_NE(nullptr, again);
  again->Release();
}

// Rule (c): N AddRefs unwound by N Releases land exactly where they
// started (the returned diagnostic counts pin it).
//
// GCC's -Wuse-after-free sees the inlined delete-on-zero branch inside
// Release() and flags the next call as a potential use-after-free; it can
// not see that the caller's reference pins the count above zero for the
// whole pairing, so the branch is unreachable here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
template <typename Obj>
void ExpectRefPairing(Obj* obj) {
  uint32_t base = obj->AddRef();
  for (int i = 0; i < 8; ++i) {
    obj->AddRef();
  }
  for (int i = 0; i < 8; ++i) {
    obj->Release();
  }
  EXPECT_EQ(base - 1, obj->Release());
}
#pragma GCC diagnostic pop

// Runs the full sweep on one object.
template <typename Obj>
void SweepCommon(Obj* obj) {
  ExpectUnknownGuidRejected(obj);
  ExpectQueryRoundTrip<IUnknown>(obj);
  ExpectRefPairing(obj);
}

// ---------------------------------------------------------------------------
// Golden interface tables: for each component, exactly which of the kit's
// interface GUIDs it answers.  Any change to how a component composes its
// interfaces shows up here as a changed row.
// ---------------------------------------------------------------------------

struct KitIface {
  std::string_view name;
  Guid iid;
};

constexpr KitIface kKitIfaces[] = {
    {"BlkIo", BlkIo::kIid},
    {"BlkIoBarrier", BlkIoBarrier::kIid},
    {"BlkIoRing", BlkIoRing::kIid},
    {"BufIo", BufIo::kIid},
    {"BufIoVec", BufIoVec::kIid},
    {"CharStream", CharStream::kIid},
    {"Device", Device::kIid},
    {"Dir", Dir::kIid},
    {"EtherDev", EtherDev::kIid},
    {"File", File::kIid},
    {"FileSystem", FileSystem::kIid},
    {"NetIo", NetIo::kIid},
    {"NetIoBatch", NetIoBatch::kIid},
    {"NetSelector", NetSelector::kIid},
    {"SkBuffIoImpl", linuxdev::kSkBuffIoImplIid},
    {"Socket", Socket::kIid},
    {"SocketExt", SocketExt::kIid},
    {"SocketFactory", SocketFactory::kIid},
    {"SocketZeroCopy", SocketZeroCopy::kIid},
};

// Query matches on GUID alone, so two interfaces sharing one would answer
// for each other.  The table lists every interface of src/com plus the
// skbuff's implementation GUID; none may repeat another or IUnknown's.
constexpr bool KitIidsDistinct() {
  for (const KitIface* a = std::begin(kKitIfaces); a != std::end(kKitIfaces); ++a) {
    if (a->iid == IUnknown::kIid) {
      return false;
    }
    for (const KitIface* b = a + 1; b != std::end(kKitIfaces); ++b) {
      if (a->iid == b->iid) {
        return false;
      }
    }
  }
  return true;
}
static_assert(KitIidsDistinct(), "two kit interfaces share a GUID");

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
// The diagnostic reference count: one AddRef/Release pair, net zero.
template <typename Obj>
uint32_t RefsOf(Obj* obj) {
  uint32_t refs = obj->AddRef();
  obj->Release();
  return refs - 1;
}
#pragma GCC diagnostic pop

// Queries `obj` for every kit GUID: those named in `answers` must succeed
// with a live pointer (released at once), every other one must fail with a
// nulled out-pointer.  Query(IUnknown) must give the same pointer every
// time, the sweep must leave the count where it found it, and the common
// rules above must hold.
template <typename Obj>
void ExpectInterfaces(Obj* obj, std::initializer_list<std::string_view> answers) {
  for (std::string_view name : answers) {
    EXPECT_TRUE(std::any_of(std::begin(kKitIfaces), std::end(kKitIfaces),
                            [&](const KitIface& k) { return k.name == name; }))
        << "no kit interface named " << name;
  }
  uint32_t refs = RefsOf(obj);
  for (const KitIface& k : kKitIfaces) {
    SCOPED_TRACE(k.name);
    bool expected =
        std::find(answers.begin(), answers.end(), k.name) != answers.end();
    void* out = reinterpret_cast<void*>(0x1);
    Error err = obj->Query(k.iid, &out);
    if (expected) {
      EXPECT_EQ(Error::kOk, err);
      ASSERT_NE(nullptr, out);
      static_cast<IUnknown*>(out)->Release();
    } else {
      EXPECT_EQ(Error::kNoInterface, err);
      EXPECT_EQ(nullptr, out);
    }
  }
  EXPECT_EQ(refs, RefsOf(obj));

  void* first = nullptr;
  void* second = nullptr;
  ASSERT_EQ(Error::kOk, obj->Query(IUnknown::kIid, &first));
  ASSERT_EQ(Error::kOk, obj->Query(IUnknown::kIid, &second));
  EXPECT_EQ(first, second);
  static_cast<IUnknown*>(first)->Release();
  static_cast<IUnknown*>(second)->Release();
  EXPECT_EQ(refs, RefsOf(obj));

  SweepCommon(obj);
}

// ---------------------------------------------------------------------------
// Native network objects
// ---------------------------------------------------------------------------

TEST(ComConformanceTest, StackSocketSurfaces) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  ComPtr<SocketFactory> factory = a.stack->CreateSocketFactory();
  SweepCommon(factory.get());
  ExpectQueryRoundTrip<SocketFactory>(factory.get());
  ExpectNoInterface<Socket>(factory.get());

  ComPtr<Socket> sock;
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                        sock.Receive()));
  SweepCommon(sock.get());
  ExpectQueryRoundTrip<Socket>(sock.get());
  ExpectQueryRoundTrip<SocketExt>(sock.get());
  ExpectNoInterface<NetSelector>(sock.get());
  ExpectNoInterface<Dir>(sock.get());

  ComPtr<NetSelector> sel = a.stack->CreateSelector();
  SweepCommon(sel.get());
  ExpectQueryRoundTrip<NetSelector>(sel.get());
  ExpectNoInterface<Socket>(sel.get());
}

// ---------------------------------------------------------------------------
// Native storage / filesystem objects
// ---------------------------------------------------------------------------

TEST(ComConformanceTest, StorageAndFsSurfaces) {
  trace::TraceEnv tenv;
  ComPtr<MemBlkIo> disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  SweepCommon(disk.get());
  ExpectQueryRoundTrip<BlkIo>(disk.get());
  ExpectQueryRoundTrip<BufIo>(disk.get());
  ExpectQueryRoundTrip<BlkIoBarrier>(disk.get());
  ExpectNoInterface<FileSystem>(disk.get());

  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> fs;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, fs.Receive()));
  SweepCommon(fs.get());
  ExpectQueryRoundTrip<FileSystem>(fs.get());
  ExpectNoInterface<Dir>(fs.get());

  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
  SweepCommon(root.get());
  ExpectQueryRoundTrip<Dir>(root.get());
  ExpectQueryRoundTrip<File>(root.get());  // a Dir is a File

  ComPtr<File> file;
  ASSERT_EQ(Error::kOk, root->Create("plain", 0644, file.Receive()));
  SweepCommon(file.get());
  ExpectQueryRoundTrip<File>(file.get());
  ExpectNoInterface<Dir>(file.get());  // a plain file is NOT a Dir

  file.Reset();
  root.Reset();
  ASSERT_EQ(Error::kOk, fs->Unmount());
}

// ---------------------------------------------------------------------------
// Security wrappers: same rules, plus the no-forwarding guarantee
// ---------------------------------------------------------------------------

TEST(ComConformanceTest, SecureNetWrapperSurfaces) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  PrincipalRegistry principals(&a.trace);
  Principal* tenant = principals.Create("tenant");
  NetGuard guard(&principals);

  ComPtr<SocketFactory> factory = secure::MakeSecureSocketFactory(
      a.stack->CreateSocketFactory(), tenant, &guard);
  SweepCommon(factory.get());
  ExpectQueryRoundTrip<SocketFactory>(factory.get());
  ExpectNoInterface<Socket>(factory.get());

  ComPtr<Socket> sock;
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                        sock.Receive()));
  SweepCommon(sock.get());
  ExpectQueryRoundTrip<Socket>(sock.get());
  // The inner BsdSocket grants SocketExt, so the wrapper mirrors it.
  ExpectQueryRoundTrip<SocketExt>(sock.get());
  ExpectNoInterface<NetSelector>(sock.get());

  ComPtr<NetSelector> sel =
      secure::MakeSecureSelector(a.stack->CreateSelector(), tenant);
  SweepCommon(sel.get());
  ExpectQueryRoundTrip<NetSelector>(sel.get());
  ExpectNoInterface<SocketExt>(sel.get());

  // Delegation pairing: a reference obtained THROUGH the wrapper must be
  // releasable without orphaning or double-freeing the wrapper.
  SocketExt* ext = nullptr;
  ASSERT_EQ(Error::kOk, QueryFor(sock.get(), &ext));
  ASSERT_EQ(Error::kOk, ext->SetNonBlocking(true));
  ext->Release();
  SockAddr name{};
  EXPECT_EQ(Error::kOk, sock->GetSockName(&name));  // wrapper still alive

  sel.Reset();
  sock.Reset();
  factory.Reset();
  // Everything the wrappers charged drained back to zero.
  EXPECT_EQ(0u, tenant->charged(secure::Resource::kSockets));
  EXPECT_EQ(0u, tenant->charged(secure::Resource::kSelectorRegs));
}

TEST(ComConformanceTest, SecureStorageWrapperDoesNotForwardUnknownGuids) {
  trace::TraceEnv tenv;
  PrincipalRegistry principals(&tenv);
  Principal* tenant = principals.Create("tenant");

  ComPtr<MemBlkIo> disk = MemBlkIo::Create(1024 * 1024, 512);
  ComPtr<BlkIo> wrapped = secure::MakeSecureBufIo(
      ComPtr<BlkIo>::Retain(static_cast<BufIo*>(disk.get())), tenant);
  SweepCommon(wrapped.get());
  ExpectQueryRoundTrip<BlkIo>(wrapped.get());
  ExpectQueryRoundTrip<BufIo>(wrapped.get());  // mirrored from MemBlkIo
  // MemBlkIo implements BlkIoBarrier, but the wrapper does not interpose on
  // it — so it must NOT be reachable through the wrapper (no unwrapped
  // side-doors).
  ExpectNoInterface<BlkIoBarrier>(wrapped.get());

  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> fs;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, fs.Receive()));
  ComPtr<FileSystem> tfs = secure::MakeSecureFs(fs, tenant, &principals);
  SweepCommon(tfs.get());
  ExpectQueryRoundTrip<FileSystem>(tfs.get());
  ExpectNoInterface<Dir>(tfs.get());

  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, tfs->GetRoot(root.Receive()));
  SweepCommon(root.get());
  ExpectQueryRoundTrip<Dir>(root.get());
  ExpectQueryRoundTrip<File>(root.get());

  ComPtr<File> file;
  ASSERT_EQ(Error::kOk, root->Create("plain", 0644, file.Receive()));
  SweepCommon(file.get());
  ExpectQueryRoundTrip<File>(file.get());
  ExpectNoInterface<Dir>(file.get());

  file.Reset();
  root.Reset();
  EXPECT_EQ(0u, tenant->charged(secure::Resource::kOpenFiles));
  ASSERT_EQ(Error::kOk, tfs->Unmount());
}

// The filesystem wrapper under a principal with a non-superuser Unix
// identity (the §3.8 mode checks on every call): the same Query and
// ref-pairing rules on every node it hands out, Dir only for directories,
// and a Rename between two of its directories reaching the inner
// filesystem with the inner destination.
TEST(ComConformanceTest, SecureFsWrapperWithUnixIdentity) {
  trace::TraceEnv tenv;
  PrincipalRegistry principals(&tenv);
  Principal* user = principals.Create(
      "user", {}, {}, {.uid = 1000, .gid = 1000, .superuser = false});

  ComPtr<MemBlkIo> disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> fs;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, fs.Receive()));
  {
    // Populated as uid 0: two directories the user may write into.
    ComPtr<Dir> raw_root;
    ASSERT_EQ(Error::kOk, fs->GetRoot(raw_root.Receive()));
    ASSERT_EQ(Error::kOk, raw_root->Mkdir("a", 0777));
    ASSERT_EQ(Error::kOk, raw_root->Mkdir("b", 0777));
    ComPtr<File> a;
    ASSERT_EQ(Error::kOk, raw_root->Lookup("a", a.Receive()));
    ComPtr<File> plain;
    ASSERT_EQ(Error::kOk, ComPtr<Dir>::FromQuery(a.get())->Create(
                              "plain", 0644, plain.Receive()));
  }

  ComPtr<FileSystem> tfs = secure::MakeSecureFs(fs, user, &principals);
  SweepCommon(tfs.get());
  ExpectQueryRoundTrip<FileSystem>(tfs.get());

  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, tfs->GetRoot(root.Receive()));
  SweepCommon(root.get());
  ExpectQueryRoundTrip<Dir>(root.get());
  ExpectQueryRoundTrip<File>(root.get());
  // Mode bits apply: the root is 0755 and owned by uid 0.
  EXPECT_EQ(Error::kAccess, root->Mkdir("denied", 0755));

  ComPtr<File> a_file;
  ASSERT_EQ(Error::kOk, root->Lookup("a", a_file.Receive()));
  SweepCommon(a_file.get());
  ExpectQueryRoundTrip<Dir>(a_file.get());  // a looked-up subdirectory
  ExpectQueryRoundTrip<File>(a_file.get());
  ComPtr<Dir> a = ComPtr<Dir>::FromQuery(a_file.get());

  ComPtr<File> plain;
  ASSERT_EQ(Error::kOk, a->Lookup("plain", plain.Receive()));
  SweepCommon(plain.get());
  ExpectQueryRoundTrip<File>(plain.get());
  ExpectNoInterface<Dir>(plain.get());  // a looked-up plain file

  ComPtr<File> b_file;
  ASSERT_EQ(Error::kOk, root->Lookup("b", b_file.Receive()));
  ComPtr<Dir> b = ComPtr<Dir>::FromQuery(b_file.get());
  ASSERT_EQ(Error::kOk, a->Rename("plain", b.get(), "moved"));
  ComPtr<File> moved;
  EXPECT_EQ(Error::kOk, b->Lookup("moved", moved.Receive()));
  EXPECT_EQ(Error::kNoEnt, a->Lookup("plain", moved.Receive()));

  moved.Reset();
  plain.Reset();
  a.Reset();
  a_file.Reset();
  b.Reset();
  b_file.Reset();
  root.Reset();
  EXPECT_EQ(0u, user->charged(secure::Resource::kOpenFiles));
  ASSERT_EQ(Error::kOk, tfs->Unmount());
}

// ---------------------------------------------------------------------------
// Golden interface tables, component by component
// ---------------------------------------------------------------------------

TEST(ComConformanceTest, NetGoldens) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeBsd);

  ComPtr<SocketFactory> factory = a.stack->CreateSocketFactory();
  ExpectInterfaces(factory.get(), {"SocketFactory"});
  ComPtr<Socket> stream;
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kStream,
                                        stream.Receive()));
  ExpectInterfaces(stream.get(), {"Socket", "SocketExt", "SocketZeroCopy"});
  // Zero-copy transmit is a stream capability: a datagram socket refuses it.
  ComPtr<Socket> dgram;
  ASSERT_EQ(Error::kOk, factory->Create(SockDomain::kInet, SockType::kDgram,
                                        dgram.Receive()));
  ExpectInterfaces(dgram.get(), {"Socket", "SocketExt"});
  ComPtr<NetSelector> sel = a.stack->CreateSelector();
  ExpectInterfaces(sel.get(), {"NetSelector"});

  // The mbuf glue object always offers its scatter-gather face; whether to
  // gather is the driver glue's choice.
  net::MbufPool pool;
  uint8_t bytes[32] = {};
  ComPtr<net::MbufBufIo> sg =
      net::MbufBufIo::Wrap(&pool, pool.FromData(bytes, sizeof(bytes)));
  ExpectInterfaces(sg.get(), {"BlkIo", "BufIo", "BufIoVec"});
}

TEST(ComConformanceTest, LinuxStackGoldens) {
  World world;
  Host& a = world.AddHost("a", NetConfig::kNativeLinux);

  ExpectInterfaces(a.socket_factory.get(), {"SocketFactory"});
  ComPtr<Socket> sock = a.MakeSocket(SockType::kStream);
  ASSERT_TRUE(sock);
  ExpectInterfaces(sock.get(), {"Socket"});
}

// One bare machine with a NIC, a disk and the kernel support library: what
// the encapsulated drivers probe.
struct DriverRig {
  DriverRig() {
    machine.AddNic(&wire, EtherAddr{{2, 0, 0, 0, 0, 1}});
    machine.AddDisk(256);
    machine.cpu().EnableInterrupts();
  }

  trace::TraceEnv tenv;
  Simulation sim;
  VirtualSwitch wire{&sim.clock(), EthernetWire::Config{}, &tenv};
  Machine machine{&sim, Machine::Config{}};
  KernelEnv kernel{&machine, MultiBootInfo{}};
  FdevEnv fdev = DefaultFdevEnv(&kernel);
  DeviceRegistry registry;
};

// Passes an EtherDev through and keeps both NetIo objects of the Open
// exchange: the client's receive side and the driver's send side.
class CapturingEtherDev final
    : public secure::Interposer<CapturingEtherDev, EtherDev> {
 public:
  using Interposer::Interposer;

  Error Open(NetIo* recv, NetIo** out_send) override {
    Error err = inner()->Open(recv, out_send);
    if (Ok(err)) {
      recv_side = ComPtr<NetIo>::Retain(recv);
      send_side = ComPtr<NetIo>::Retain(*out_send);
    }
    return err;
  }
  Error Close() override { return inner()->Close(); }
  Error GetAddr(EtherAddr* out_addr) override { return inner()->GetAddr(out_addr); }

  ComPtr<NetIo> recv_side;
  ComPtr<NetIo> send_side;
};

TEST(ComConformanceTest, DriverGoldens) {
  DriverRig rig;
  ASSERT_EQ(Error::kOk,
            linuxdev::InitLinuxEthernet(rig.fdev, &rig.machine, &rig.registry));
  ASSERT_EQ(Error::kOk,
            linuxdev::InitLinuxIde(rig.fdev, &rig.machine, &rig.registry));
  ASSERT_EQ(Error::kOk,
            freebsddev::InitFreeBsdChar(rig.fdev, &rig.machine, &rig.registry));

  auto ethers = rig.registry.LookupByInterface(EtherDev::kIid);
  ASSERT_EQ(1u, ethers.size());
  ExpectInterfaces(ethers[0].get(), {"Device", "EtherDev"});

  auto disks = rig.registry.LookupByInterface(BlkIo::kIid);
  ASSERT_EQ(1u, disks.size());
  ExpectInterfaces(disks[0].get(),
                   {"Device", "BlkIo", "BlkIoBarrier", "BlkIoRing"});

  auto ttys = rig.registry.LookupByInterface(CharStream::kIid);
  ASSERT_FALSE(ttys.empty());
  for (const ComPtr<Device>& tty : ttys) {
    ExpectInterfaces(tty.get(), {"Device", "CharStream"});
  }

  // The stack's receive side and the glue's send side, reached through an
  // ordinary interface bind.
  ComPtr<CapturingEtherDev> capture(
      new CapturingEtherDev(ComPtr<EtherDev>::FromQuery(ethers[0].get())));
  net::NetStack stack(&rig.kernel.sleep_env(), &rig.sim.clock(), &rig.kernel.trace());
  int ifindex = -1;
  ASSERT_EQ(Error::kOk, stack.OpenEtherIf(capture.get(), &ifindex));
  ASSERT_TRUE(capture->recv_side);
  ASSERT_TRUE(capture->send_side);
  ExpectInterfaces(capture->recv_side.get(), {"NetIo", "NetIoBatch"});
  ExpectInterfaces(capture->send_side.get(), {"NetIo"});
  capture->recv_side.Reset();
  capture->send_side.Reset();

  // A received skbuff's BufIo face, private implementation GUID included.
  linuxdev::LinuxKernelEnv kenv;
  kenv.kmalloc = +[](void*, size_t size) -> void* { return std::malloc(size); };
  kenv.kfree = +[](void*, void* ptr, size_t) { std::free(ptr); };
  ComPtr<linuxdev::SkBuffIo> skb(
      new linuxdev::SkBuffIo(kenv, linuxdev::dev_alloc_skb(kenv, 64)));
  ExpectInterfaces(skb.get(), {"BlkIo", "BufIo", "SkBuffIoImpl"});
}

TEST(ComConformanceTest, BlockStackGoldens) {
  trace::TraceEnv tenv;
  ComPtr<MemBlkIo> disk = MemBlkIo::Create(1024 * 1024, 512);
  ExpectInterfaces(disk.get(), {"BlkIo", "BufIo", "BlkIoBarrier"});
  BlkIo* below = static_cast<BufIo*>(disk.get());

  ExpectInterfaces(fs::CacheBlkIo::Create(below, 512, 256, &tenv).get(),
                   {"BlkIo", "BlkIoBarrier"});
  ExpectInterfaces(aio::SyncRingAdapter::Wrap(below, &tenv).get(),
                   {"BlkIo", "BlkIoBarrier", "BlkIoRing"});
  ExpectInterfaces(aio::ChecksumBlkIo::Create(below, &tenv).get(),
                   {"BlkIo", "BlkIoBarrier"});
  std::vector<ComPtr<BlkIo>> children;
  children.push_back(ComPtr<BlkIo>::Retain(below));
  children.push_back(ComPtr<BlkIo>::Retain(below));
  ExpectInterfaces(aio::StripeBlkIo::Create(std::move(children), 4096, &tenv).get(),
                   {"BlkIo", "BlkIoBarrier"});

  // A partition view grants a barrier only over a disk that has one.
  Partition part;
  part.start_sector = 64;
  part.sector_count = 128;
  ExpectInterfaces(MakePartitionView(below, part).get(),
                   {"BlkIo", "BlkIoBarrier"});
  PrincipalRegistry principals(&tenv);
  ComPtr<BlkIo> no_barrier = secure::MakeSecureBufIo(
      ComPtr<BlkIo>::Retain(below), principals.Create("tenant"));
  ExpectInterfaces(MakePartitionView(no_barrier.get(), part).get(), {"BlkIo"});
}

TEST(ComConformanceTest, FsGoldens) {
  trace::TraceEnv tenv;
  ComPtr<MemBlkIo> disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> fs;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), {.trace = &tenv}, fs.Receive()));
  ExpectInterfaces(fs.get(), {"FileSystem"});
  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
  ExpectInterfaces(root.get(), {"File", "Dir"});
  ComPtr<File> file;
  ASSERT_EQ(Error::kOk, root->Create("plain", 0644, file.Receive()));
  // A regular file grants its zero-copy BufIoVec view as a tear-off: a
  // separate object answering the BufIo family, not File.
  ExpectInterfaces(file.get(), {"File", "BufIo", "BufIoVec"});
  ComPtr<BufIoVec> vec = ComPtr<BufIoVec>::FromQuery(file.get());
  ASSERT_TRUE(vec);
  ExpectInterfaces(vec.get(), {"BlkIo", "BufIo", "BufIoVec"});

  vec.Reset();
  file.Reset();
  root.Reset();
  ASSERT_EQ(Error::kOk, fs->Unmount());
}

TEST(ComConformanceTest, MemFsGoldens) {
  ComPtr<MemFs> fs = MemFs::Create();
  ExpectInterfaces(fs.get(), {"FileSystem"});
  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
  ExpectInterfaces(root.get(), {"File", "Dir"});
  ComPtr<File> file;
  ASSERT_EQ(Error::kOk, root->Create("plain", 0644, file.Receive()));
  ExpectInterfaces(file.get(), {"File"});
}

}  // namespace
}  // namespace oskit::testbed
