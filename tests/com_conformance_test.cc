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

#include "src/com/memblkio.h"
#include "src/fs/ffs.h"
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
  ComPtr<MemBlkIo> disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  SweepCommon(disk.get());
  ExpectQueryRoundTrip<BlkIo>(disk.get());
  ExpectQueryRoundTrip<BufIo>(disk.get());
  ExpectQueryRoundTrip<BlkIoBarrier>(disk.get());
  ExpectNoInterface<FileSystem>(disk.get());

  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> fs;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), fs.Receive()));
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
  PrincipalRegistry principals;
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
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), fs.Receive()));
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
  PrincipalRegistry principals;
  Principal* user = principals.Create(
      "user", {}, {}, {.uid = 1000, .gid = 1000, .superuser = false});

  ComPtr<MemBlkIo> disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, fs::Mkfs(disk.get()));
  ComPtr<FileSystem> fs;
  ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk.get(), fs.Receive()));
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

}  // namespace
}  // namespace oskit::testbed
