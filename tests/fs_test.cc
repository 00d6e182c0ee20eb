// Filesystem tests (§3.8): mkfs/mount, file and directory operations, large
// files through double indirection, fsck after everything, the security
// wrapper, and a randomized property test against an in-memory model.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/fs/ffs.h"
#include "src/fs/format.h"
#include "src/fs/fsck.h"
#include "src/secure/wrap.h"
#include "tests/bounds_abuse.h"

// Calls to the global operator new in this test binary (tests/new_counter.cc).
size_t GlobalNewCalls();

namespace oskit::fs {
namespace {

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = MemBlkIo::Create(16 * 1024 * 1024, 512);
    ASSERT_EQ(Error::kOk, Mkfs(disk_.get()));
    FileSystem* raw = nullptr;
    ASSERT_EQ(Error::kOk, Offs::Mount(disk_.get(), {.trace = &tenv_}, &raw));
    fs_ = ComPtr<FileSystem>(raw);
    ASSERT_EQ(Error::kOk, fs_->GetRoot(root_.Receive()));
  }

  void Remount() {
    root_.Reset();
    ASSERT_EQ(Error::kOk, fs_->Unmount());
    fs_.Reset();
    FileSystem* raw = nullptr;
    ASSERT_EQ(Error::kOk, Offs::Mount(disk_.get(), {.trace = &tenv_}, &raw));
    fs_ = ComPtr<FileSystem>(raw);
    ASSERT_EQ(Error::kOk, fs_->GetRoot(root_.Receive()));
  }

  void ExpectFsckClean() {
    root_.Reset();
    ASSERT_EQ(Error::kOk, fs_->Unmount());
    FsckReport report = Fsck(disk_.get());
    EXPECT_TRUE(report.superblock_valid);
    EXPECT_TRUE(report.was_clean);
    for (const std::string& p : report.problems) {
      ADD_FAILURE() << "fsck: " << p;
    }
    fs_.Reset();
    FileSystem* raw = nullptr;
    ASSERT_EQ(Error::kOk, Offs::Mount(disk_.get(), {.trace = &tenv_}, &raw));
    fs_ = ComPtr<FileSystem>(raw);
    ASSERT_EQ(Error::kOk, fs_->GetRoot(root_.Receive()));
  }

  trace::TraceEnv tenv_;  // outlives every mount below
  ComPtr<MemBlkIo> disk_;
  ComPtr<FileSystem> fs_;
  ComPtr<Dir> root_;
};

TEST(BlockCacheTest, EvictionPinKeepsDirtyBlocksCached) {
  trace::TraceEnv tenv;
  auto disk = MemBlkIo::Create(1024 * 1024, 512);
  BlockCache cache(ComPtr<BlkIo>::Retain(disk.get()), kBlockSize, 8, &tenv);
  cache.SetEvictionPin([](uint32_t block) { return block < 4; });

  uint8_t* data = nullptr;
  for (uint32_t b = 0; b < 4; ++b) {
    ASSERT_EQ(Error::kOk, cache.Get(b, &data));
    data[0] = 0x5a;
    cache.MarkDirty(b);
  }
  // Stream enough unpinned blocks through to force evictions: the LRU
  // victims must be the clean read blocks, never the pinned dirty ones.
  for (uint32_t b = 100; b < 110; ++b) {
    ASSERT_EQ(Error::kOk, cache.Get(b, &data));
  }
  EXPECT_EQ((std::vector<uint32_t>{0, 1, 2, 3}), cache.CollectDirty());
  // With every slot pinned dirty and no clean block to evict, a miss
  // surfaces kBusy instead of writing a pinned block home.
  BlockCache tight(ComPtr<BlkIo>::Retain(disk.get()), kBlockSize, 8, &tenv);
  tight.SetEvictionPin([](uint32_t) { return true; });
  for (uint32_t b = 0; b < 8; ++b) {
    ASSERT_EQ(Error::kOk, tight.Get(b, &data));
    tight.MarkDirty(b);
  }
  EXPECT_EQ(Error::kBusy, tight.Get(50, &data));
}

TEST_F(FsTest, FreshFilesystemPassesFsck) { ExpectFsckClean(); }

TEST_F(FsTest, FileBoundsAbuse) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("abused", 0644, f.Receive()));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, f->Write("xx", 0, 2, &actual));
  // File-style surface: reads past EOF are kOk with 0 bytes, but a wrapped
  // range is kInval — never an attempt to allocate to "offset + amount".
  oskit::testing::AbuseReadBounds(f.get(), 2, oskit::testing::PastEnd::kEofOk);
  oskit::testing::AbuseWriteBounds(f.get(), 2, oskit::testing::PastEnd::kEofOk);
  // The sendfile view's windows follow the same contract.
  auto vec = ComPtr<BufIoVec>::FromQuery(f.get());
  ASSERT_TRUE(vec);
  oskit::testing::AbuseMapBounds(oskit::testing::VectorsWindow(vec.get()), 2);
  vec.Reset();
  f.Reset();
  ExpectFsckClean();
}

// A view's pins keep their storage between calls, so a warm Vectors/
// UnmapVectors pair allocates nothing; views unmapped out of order each
// drop exactly their own cache references.
TEST_F(FsTest, WarmVectorsPairDoesNotAllocate) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("sendfile", 0644, f.Receive()));
  std::vector<uint8_t> data(4 * kBlockSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i / kBlockSize + 1);
  }
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, f->Write(data.data(), 0, data.size(), &actual));
  auto vec = ComPtr<BufIoVec>::FromQuery(f.get());
  ASSERT_TRUE(vec);
  BufIoSegment front[4];
  BufIoSegment back[4];
  size_t count = 0;
  auto views = [&] {
    // Blocks 0-1 and 2-3 as two views, unmapped in the order they were not made.
    ASSERT_EQ(Error::kOk, vec->Vectors(front, 4, 100, 2 * kBlockSize - 100, &count));
    ASSERT_EQ(2u, count);
    ASSERT_EQ(Error::kOk, vec->Vectors(back, 4, 2 * kBlockSize, 2 * kBlockSize, &count));
    ASSERT_EQ(2u, count);
    EXPECT_EQ(1, front[0].data[0]);
    EXPECT_EQ(kBlockSize - 100, front[0].len);
    EXPECT_EQ(4, back[1].data[kBlockSize - 1]);
    ASSERT_EQ(Error::kOk, vec->UnmapVectors(2 * kBlockSize, 2 * kBlockSize));
    ASSERT_EQ(Error::kOk, vec->UnmapVectors(100, 2 * kBlockSize - 100));
    EXPECT_EQ(Error::kInval, vec->UnmapVectors(100, 2 * kBlockSize - 100));
  };
  views();  // the first pair sizes the pin lists
  size_t before = GlobalNewCalls();
  views();
  EXPECT_EQ(before, GlobalNewCalls());
  vec.Reset();
  f.Reset();
  ExpectFsckClean();
}

// Forwards to a MemBlkIo, and runs `on_read` once, before the next read:
// another fiber running while a cache miss waits on the disk.
class ReadHookBlkIo final : public ComObject<ReadHookBlkIo, BlkIo> {
 public:
  explicit ReadHookBlkIo(ComPtr<MemBlkIo> inner) : inner_(std::move(inner)) {}

  uint32_t GetBlockSize() override { return inner_->GetBlockSize(); }
  Error Read(void* buf, off_t64 offset, size_t amount, size_t* out_actual) override {
    if (on_read) {
      std::exchange(on_read, nullptr)();
    }
    return inner_->Read(buf, offset, amount, out_actual);
  }
  Error Write(const void* buf, off_t64 offset, size_t amount,
              size_t* out_actual) override {
    return inner_->Write(buf, offset, amount, out_actual);
  }
  Error GetSize(off_t64* out_size) override { return inner_->GetSize(out_size); }

  std::function<void()> on_read;

 private:
  friend class RefCounted<ReadHookBlkIo>;
  ~ReadHookBlkIo() = default;

  ComPtr<MemBlkIo> inner_;
};

// A view whose cache miss waits on the disk keeps exactly its own pins when
// another view of the same file is unmapped meanwhile.
TEST(FileVecTest, UnmapDuringAnotherViewsCacheMissUnpinsExactly) {
  trace::TraceEnv tenv;
  constexpr size_t kDiskBytes = 4 * 1024 * 1024;
  ComPtr<ReadHookBlkIo> dev(new ReadHookBlkIo(MemBlkIo::Create(kDiskBytes, 512)));
  ASSERT_EQ(Error::kOk, Mkfs(dev.get()));
  auto mount = [&](ComPtr<FileSystem>* fs, ComPtr<Dir>* root) {
    FileSystem* raw = nullptr;
    ASSERT_EQ(Error::kOk, Offs::Mount(dev.get(), {.trace = &tenv}, &raw));
    *fs = ComPtr<FileSystem>(raw);
    ASSERT_EQ(Error::kOk, (*fs)->GetRoot(root->Receive()));
  };
  ComPtr<FileSystem> fs;
  ComPtr<Dir> root;
  ComPtr<File> f;
  mount(&fs, &root);
  std::vector<uint8_t> data(4 * kBlockSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i / kBlockSize + 1);
  }
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, root->Create("f", 0644, f.Receive()));
  ASSERT_EQ(Error::kOk, f->Write(data.data(), 0, data.size(), &actual));
  f.Reset();
  root.Reset();
  ASSERT_EQ(Error::kOk, fs->Unmount());
  mount(&fs, &root);  // a cold cache: every view below misses
  ASSERT_EQ(Error::kOk, root->Lookup("f", f.Receive()));

  auto vec = ComPtr<BufIoVec>::FromQuery(f.get());
  ASSERT_TRUE(vec);
  BufIoSegment front[2];
  BufIoSegment back[2];
  size_t count = 0;
  ASSERT_EQ(Error::kOk, vec->Vectors(front, 2, 0, 2 * kBlockSize, &count));
  dev->on_read = [&] { EXPECT_EQ(Error::kOk, vec->UnmapVectors(0, 2 * kBlockSize)); };
  ASSERT_EQ(Error::kOk, vec->Vectors(back, 2, 2 * kBlockSize, 2 * kBlockSize, &count));
  EXPECT_FALSE(dev->on_read);  // the front view went while the back one waited
  EXPECT_EQ(3, back[0].data[0]);
  EXPECT_EQ(4, back[1].data[kBlockSize - 1]);
  ASSERT_EQ(Error::kOk, vec->UnmapVectors(2 * kBlockSize, 2 * kBlockSize));

  // Nothing is left pinned: once clean, every cached block can be evicted.
  // Sweeping the whole disk (more blocks than the cache holds) twice, the
  // second sweep finds none of them still cached.
  ASSERT_EQ(Error::kOk, fs->Sync());
  BlockCache& cache = static_cast<Offs*>(fs.get())->cache();
  uint8_t* block_data = nullptr;
  uint64_t hits = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    hits = cache.hits();
    for (uint32_t block = 0; block < kDiskBytes / kBlockSize; ++block) {
      ASSERT_EQ(Error::kOk, cache.Get(block, &block_data)) << "block " << block;
    }
  }
  EXPECT_EQ(hits, cache.hits());
  vec.Reset();
  f.Reset();
  root.Reset();
  ASSERT_EQ(Error::kOk, fs->Unmount());
}

TEST_F(FsTest, CreateWriteReadPersistsAcrossRemount) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("hello.txt", 0644, f.Receive()));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, f->Write("persistent data", 0, 15, &actual));
  EXPECT_EQ(15u, actual);
  f.Reset();
  Remount();
  ASSERT_EQ(Error::kOk, root_->Lookup("hello.txt", f.Receive()));
  char buf[32] = {};
  ASSERT_EQ(Error::kOk, f->Read(buf, 0, sizeof(buf), &actual));
  EXPECT_EQ(15u, actual);
  EXPECT_STREQ("persistent data", buf);
  f.Reset();
  ExpectFsckClean();
}

TEST_F(FsTest, LargeFileThroughDoubleIndirection) {
  // Past 10 direct (40 KB) and 1024 single-indirect blocks (4 MB): write
  // ~4.5 MB so the double-indirect path runs.
  constexpr size_t kSize = 4608 * 1024 + 12345;
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("big", 0644, f.Receive()));
  std::vector<uint8_t> chunk(64 * 1024);
  size_t written = 0;
  uint32_t x = 1;
  while (written < kSize) {
    size_t n = chunk.size() < kSize - written ? chunk.size() : kSize - written;
    for (size_t i = 0; i < n; ++i) {
      x = x * 1664525 + 1013904223;
      chunk[i] = static_cast<uint8_t>(x >> 24);
    }
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, f->Write(chunk.data(), written, n, &actual));
    ASSERT_EQ(n, actual);
    written += n;
  }
  FileStat st;
  f->GetStat(&st);
  EXPECT_EQ(kSize, st.size);

  // Verify the whole stream.
  x = 1;
  std::vector<uint8_t> readback(64 * 1024);
  size_t offset = 0;
  while (offset < kSize) {
    size_t n = readback.size() < kSize - offset ? readback.size() : kSize - offset;
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, f->Read(readback.data(), offset, n, &actual));
    ASSERT_EQ(n, actual);
    for (size_t i = 0; i < n; ++i) {
      x = x * 1664525 + 1013904223;
      ASSERT_EQ(static_cast<uint8_t>(x >> 24), readback[i])
          << "at offset " << offset + i;
    }
    offset += n;
  }
  f.Reset();
  ExpectFsckClean();
}

TEST_F(FsTest, TruncateReleasesBlocks) {
  FsStat before;
  fs_->StatFs(&before);
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("trunc", 0644, f.Receive()));
  std::vector<uint8_t> data(1024 * 1024, 0xcd);
  size_t actual;
  ASSERT_EQ(Error::kOk, f->Write(data.data(), 0, data.size(), &actual));
  FsStat mid;
  fs_->StatFs(&mid);
  EXPECT_LT(mid.free_blocks, before.free_blocks);
  ASSERT_EQ(Error::kOk, f->SetSize(100));
  FsStat after;
  fs_->StatFs(&after);
  EXPECT_GT(after.free_blocks, mid.free_blocks);
  // Shrink-then-grow reads zeros in the regrown region.
  ASSERT_EQ(Error::kOk, f->SetSize(8192));
  uint8_t buf[200];
  ASSERT_EQ(Error::kOk, f->Read(buf, 50, 200, &actual));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(0xcd, buf[i]);  // first 100 bytes survive
  }
  for (int i = 50; i < 200; ++i) {
    EXPECT_EQ(0, buf[i]) << "stale data after truncate at " << i;
  }
  f.Reset();
  ExpectFsckClean();
}

TEST_F(FsTest, DirectoryTreeAndRename) {
  ASSERT_EQ(Error::kOk, root_->Mkdir("a", 0755));
  ComPtr<File> af;
  ASSERT_EQ(Error::kOk, root_->Lookup("a", af.Receive()));
  // A directory's File surface refuses byte IO (Dir's defaults).
  char byte = 0;
  size_t refused = 99;
  EXPECT_EQ(Error::kIsDir, af->Read(&byte, 0, 1, &refused));
  EXPECT_EQ(0u, refused);
  EXPECT_EQ(Error::kIsDir, af->Write(&byte, 0, 1, &refused));
  EXPECT_EQ(Error::kIsDir, af->SetSize(0));
  ComPtr<Dir> a = ComPtr<Dir>::FromQuery(af.get());
  ASSERT_EQ(Error::kOk, a->Mkdir("b", 0755));
  ComPtr<File> bf;
  ASSERT_EQ(Error::kOk, a->Lookup("b", bf.Receive()));
  ComPtr<Dir> b = ComPtr<Dir>::FromQuery(bf.get());

  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, b->Create("deep", 0644, f.Receive()));
  size_t actual;
  f->Write("abc", 0, 3, &actual);

  // Move the whole "b" subtree up to the root.
  ASSERT_EQ(Error::kOk, a->Rename("b", root_.get(), "b-moved"));
  EXPECT_EQ(Error::kNoEnt, a->Lookup("b", f.Receive()));
  ComPtr<File> moved;
  ASSERT_EQ(Error::kOk, root_->Lookup("b-moved", moved.Receive()));
  ComPtr<Dir> moved_dir = ComPtr<Dir>::FromQuery(moved.get());
  ASSERT_EQ(Error::kOk, moved_dir->Lookup("deep", f.Receive()));

  // ".." inside the moved directory points at the new parent (the root).
  ComPtr<File> dotdot;
  ASSERT_EQ(Error::kOk, moved_dir->Lookup("..", dotdot.Receive()));
  FileStat dd_stat;
  FileStat root_stat;
  dotdot->GetStat(&dd_stat);
  root_->GetStat(&root_stat);
  EXPECT_EQ(root_stat.ino, dd_stat.ino);

  a.Reset();
  af.Reset();
  b.Reset();
  bf.Reset();
  f.Reset();
  moved.Reset();
  moved_dir.Reset();
  dotdot.Reset();
  ExpectFsckClean();
}

TEST_F(FsTest, UnlinkReleasesInodeAndBlocks) {
  FsStat before;
  fs_->StatFs(&before);
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("victim", 0644, f.Receive()));
  std::vector<uint8_t> data(100 * 1024, 1);
  size_t actual;
  f->Write(data.data(), 0, data.size(), &actual);
  f.Reset();
  ASSERT_EQ(Error::kOk, root_->Unlink("victim"));
  FsStat after;
  fs_->StatFs(&after);
  EXPECT_EQ(before.free_blocks, after.free_blocks);
  EXPECT_EQ(before.free_inodes, after.free_inodes);
  ExpectFsckClean();
}

TEST_F(FsTest, CrashWithoutSyncIsDetectedByFsck) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("dirty", 0644, f.Receive()));
  size_t actual;
  f->Write("unsynced", 0, 8, &actual);
  // "Crash": drop everything without Unmount/Sync.  The on-disk clean flag
  // was cleared at mount time, so fsck must notice.
  f.Reset();
  root_.Reset();
  fs_.Reset();
  FsckReport report = Fsck(disk_.get());
  EXPECT_TRUE(report.superblock_valid);
  EXPECT_FALSE(report.was_clean);
}

TEST_F(FsTest, SyncMakesCrashConsistent) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("synced", 0644, f.Receive()));
  size_t actual;
  f->Write("durable", 0, 7, &actual);
  ASSERT_EQ(Error::kOk, fs_->Sync());
  // Crash after sync: data must be intact on remount even though the clean
  // flag says "was mounted".
  f.Reset();
  root_.Reset();
  fs_.Reset();
  FsckReport report = Fsck(disk_.get());
  EXPECT_FALSE(report.was_clean);
  EXPECT_TRUE(report.consistent) << (report.problems.empty()
                                         ? ""
                                         : report.problems[0]);
  FileSystem* raw = nullptr;
  ASSERT_EQ(Error::kOk, Offs::Mount(disk_.get(), {.trace = &tenv_}, &raw));
  ComPtr<FileSystem> fs2(raw);
  ComPtr<Dir> root2;
  ASSERT_EQ(Error::kOk, fs2->GetRoot(root2.Receive()));
  ASSERT_EQ(Error::kOk, root2->Lookup("synced", f.Receive()));
  char buf[8] = {};
  ASSERT_EQ(Error::kOk, f->Read(buf, 0, 7, &actual));
  EXPECT_STREQ("durable", buf);
}

TEST_F(FsTest, OutOfSpaceIsReportedNotCorrupting) {
  // Fill the disk, expect kNoSpace, then verify consistency.
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("filler", 0644, f.Receive()));
  std::vector<uint8_t> chunk(256 * 1024, 0xaa);
  uint64_t offset = 0;
  Error err = Error::kOk;
  for (int i = 0; i < 200; ++i) {
    size_t actual = 0;
    err = f->Write(chunk.data(), offset, chunk.size(), &actual);
    offset += actual;
    if (!Ok(err)) {
      break;
    }
  }
  EXPECT_EQ(Error::kNoSpace, err);
  f.Reset();
  ASSERT_EQ(Error::kOk, root_->Unlink("filler"));
  ExpectFsckClean();
}

// The secure fileserver experiment (§3.8): per-component permission checks,
// by the filesystem wrapper under principals that carry Unix identities.
TEST_F(FsTest, SecurityWrapperEnforcesPermissions) {
  trace::TraceEnv tenv;
  secure::PrincipalRegistry principals(&tenv);
  // Root creates a world-readable file and a private one.
  ComPtr<File> pub;
  ASSERT_EQ(Error::kOk, root_->Create("public", 0644, pub.Receive()));
  size_t actual;
  pub->Write("open", 0, 4, &actual);
  ComPtr<File> priv;
  ASSERT_EQ(Error::kOk, root_->Create("private", 0600, priv.Receive()));
  priv->Write("secret", 0, 6, &actual);

  secure::Principal* alice = principals.Create(
      "alice", {}, {}, {.uid = 1000, .gid = 1000, .superuser = false});
  ComPtr<FileSystem> alice_fs = secure::MakeSecureFs(fs_, alice, &principals);
  ComPtr<Dir> secure_root;
  ASSERT_EQ(Error::kOk, alice_fs->GetRoot(secure_root.Receive()));

  // Readable file: lookup + read succeed.
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, secure_root->Lookup("public", f.Receive()));
  char buf[8] = {};
  ASSERT_EQ(Error::kOk, f->Read(buf, 0, 4, &actual));
  EXPECT_STREQ("open", buf);
  // But writing 0644-owned-by-root is denied for alice.
  EXPECT_EQ(Error::kAccess, f->Write("x", 0, 1, &actual));

  // Private file: lookup succeeds (directory is 0755) but reading is denied.
  ComPtr<File> s;
  ASSERT_EQ(Error::kOk, secure_root->Lookup("private", s.Receive()));
  EXPECT_EQ(Error::kAccess, s->Read(buf, 0, 6, &actual));

  // Creating in the root (0755, owned by uid 0) is denied too.
  ComPtr<File> nf;
  EXPECT_EQ(Error::kAccess, secure_root->Create("mine", 0644, nf.Receive()));

  // The superuser (a principal's default identity) passes everything.
  secure::Principal* su = principals.Create("root");
  ComPtr<FileSystem> su_fs = secure::MakeSecureFs(fs_, su, &principals);
  ComPtr<Dir> su_root;
  ASSERT_EQ(Error::kOk, su_fs->GetRoot(su_root.Receive()));
  ASSERT_EQ(Error::kOk, su_root->Create("made-by-su", 0644, nf.Receive()));
  EXPECT_GT(alice->denied_total(), 2u);
  EXPECT_EQ(0u, su->denied_total());
}

// A Dir that is not one of this mount's own (here the security wrapper's
// view of the same root) is refused as a rename destination with kXDev —
// checked, never downcast.
TEST_F(FsTest, RenameIntoForeignDirIsCrossDevice) {
  trace::TraceEnv tenv;
  secure::PrincipalRegistry principals(&tenv);
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("src", 0644, f.Receive()));
  ComPtr<FileSystem> wrapped =
      secure::MakeSecureFs(fs_, principals.Create("tenant"), &principals);
  ComPtr<Dir> wrapped_root;
  ASSERT_EQ(Error::kOk, wrapped->GetRoot(wrapped_root.Receive()));
  EXPECT_EQ(Error::kXDev, root_->Rename("src", wrapped_root.get(), "dst"));
  ComPtr<File> still;
  EXPECT_EQ(Error::kOk, root_->Lookup("src", still.Receive()));
}

TEST_F(FsTest, RenameIntoOwnSubtreeIsRefused) {
  // "mv a a/b/a" must fail with EINVAL, not detach a cycle from the tree.
  ASSERT_EQ(Error::kOk, root_->Mkdir("a", 0755));
  ComPtr<File> af;
  ASSERT_EQ(Error::kOk, root_->Lookup("a", af.Receive()));
  ComPtr<Dir> a = ComPtr<Dir>::FromQuery(af.get());
  ASSERT_EQ(Error::kOk, a->Mkdir("b", 0755));
  ComPtr<File> bf;
  ASSERT_EQ(Error::kOk, a->Lookup("b", bf.Receive()));
  ComPtr<Dir> b = ComPtr<Dir>::FromQuery(bf.get());

  EXPECT_EQ(Error::kInval, root_->Rename("a", b.get(), "a"));
  EXPECT_EQ(Error::kInval, root_->Rename("a", a.get(), "self"));
  // Everything still reachable and consistent.
  ComPtr<File> check;
  ASSERT_EQ(Error::kOk, root_->Lookup("a", check.Receive()));
  a.Reset();
  af.Reset();
  b.Reset();
  bf.Reset();
  check.Reset();
  ExpectFsckClean();
}

TEST_F(FsTest, ReadDirEnumeratesEntries) {
  ASSERT_EQ(Error::kOk, root_->Mkdir("sub", 0755));
  for (char c = 'p'; c <= 't'; ++c) {
    char name[8] = {'f', '_', c, 0};
    ComPtr<File> f;
    ASSERT_EQ(Error::kOk, root_->Create(name, 0644, f.Receive()));
  }
  uint64_t offset = 0;
  DirEntry entries[3];
  size_t total = 0;
  bool saw_dot = false;
  bool saw_sub = false;
  for (;;) {
    size_t count = 0;
    ASSERT_EQ(Error::kOk, root_->ReadDir(&offset, entries, 3, &count));
    if (count == 0) {
      break;
    }
    for (size_t i = 0; i < count; ++i) {
      ++total;
      saw_dot |= strcmp(entries[i].name, ".") == 0;
      if (strcmp(entries[i].name, "sub") == 0) {
        saw_sub = true;
        EXPECT_EQ(FileType::kDirectory, entries[i].type);
      }
    }
  }
  // ".", "..", "sub", f_p..f_t = 8 entries.
  EXPECT_EQ(8u, total);
  EXPECT_TRUE(saw_dot);
  EXPECT_TRUE(saw_sub);
}

// Randomized ops cross-checked against an in-memory model, fsck at the end.
class FsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsPropertyTest, RandomOpsMatchModelAndFsck) {
  trace::TraceEnv tenv;
  auto disk = MemBlkIo::Create(8 * 1024 * 1024, 512);
  ASSERT_EQ(Error::kOk, Mkfs(disk.get()));
  FileSystem* raw = nullptr;
  ASSERT_EQ(Error::kOk, Offs::Mount(disk.get(), {.trace = &tenv}, &raw));
  ComPtr<FileSystem> fs(raw);
  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));

  Rng rng(GetParam());
  std::map<std::string, std::vector<uint8_t>> model;  // name -> contents

  for (int step = 0; step < 300; ++step) {
    int op = static_cast<int>(rng.Below(10));
    char name[16];
    snprintf(name, sizeof(name), "f%02d", static_cast<int>(rng.Below(20)));
    if (op < 4) {
      // Write (create if needed) at a random offset.
      ComPtr<File> f;
      Error err = root->Lookup(name, f.Receive());
      if (err == Error::kNoEnt) {
        ASSERT_EQ(Error::kOk, root->Create(name, 0644, f.Receive()));
        model[name] = {};
      } else {
        ASSERT_EQ(Error::kOk, err);
      }
      size_t offset = rng.Below(8 * 1024);
      size_t len = rng.Range(1, 4096);
      std::vector<uint8_t> data(len);
      for (auto& byte : data) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      size_t actual = 0;
      ASSERT_EQ(Error::kOk, f->Write(data.data(), offset, len, &actual));
      ASSERT_EQ(len, actual);
      auto& contents = model[name];
      if (contents.size() < offset + len) {
        contents.resize(offset + len, 0);
      }
      memcpy(contents.data() + offset, data.data(), len);
    } else if (op < 7) {
      // Read back a random range and compare with the model.
      auto it = model.begin();
      if (model.empty()) {
        continue;
      }
      std::advance(it, rng.Below(model.size()));
      ComPtr<File> f;
      ASSERT_EQ(Error::kOk, root->Lookup(it->first.c_str(), f.Receive()));
      FileStat st;
      ASSERT_EQ(Error::kOk, f->GetStat(&st));
      ASSERT_EQ(it->second.size(), st.size);
      if (st.size == 0) {
        continue;
      }
      size_t offset = rng.Below(st.size);
      size_t len = rng.Range(1, 2048);
      std::vector<uint8_t> buf(len);
      size_t actual = 0;
      ASSERT_EQ(Error::kOk, f->Read(buf.data(), offset, len, &actual));
      size_t expect = st.size - offset < len ? st.size - offset : len;
      ASSERT_EQ(expect, actual);
      ASSERT_EQ(0, memcmp(buf.data(), it->second.data() + offset, actual))
          << "content divergence in " << it->first;
    } else if (op < 8) {
      // Truncate.
      if (model.empty()) {
        continue;
      }
      auto it = model.begin();
      std::advance(it, rng.Below(model.size()));
      ComPtr<File> f;
      ASSERT_EQ(Error::kOk, root->Lookup(it->first.c_str(), f.Receive()));
      size_t new_size = rng.Below(16 * 1024);
      ASSERT_EQ(Error::kOk, f->SetSize(new_size));
      it->second.resize(new_size, 0);
    } else if (op < 9) {
      // Unlink.
      if (model.empty()) {
        continue;
      }
      auto it = model.begin();
      std::advance(it, rng.Below(model.size()));
      ASSERT_EQ(Error::kOk, root->Unlink(it->first.c_str()));
      model.erase(it);
    } else {
      // Sync (durability checkpoints mid-run).
      ASSERT_EQ(Error::kOk, fs->Sync());
    }
  }

  // Full verification of every file, then fsck.
  for (const auto& [name, contents] : model) {
    ComPtr<File> f;
    ASSERT_EQ(Error::kOk, root->Lookup(name.c_str(), f.Receive()));
    std::vector<uint8_t> buf(contents.size());
    size_t actual = 0;
    if (!contents.empty()) {
      ASSERT_EQ(Error::kOk, f->Read(buf.data(), 0, buf.size(), &actual));
      ASSERT_EQ(contents.size(), actual);
      ASSERT_EQ(0, memcmp(buf.data(), contents.data(), contents.size()));
    }
  }
  root.Reset();
  ASSERT_EQ(Error::kOk, fs->Unmount());
  FsckReport report = Fsck(disk.get());
  EXPECT_TRUE(report.consistent) << (report.problems.empty() ? ""
                                                             : report.problems[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest, ::testing::Values(101, 202, 303, 404));

bool HasProblem(const FsckReport& report, const std::string& needle) {
  for (const std::string& p : report.problems) {
    if (p.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// A directory of three full blocks and more, built through the COM surface:
// 190 files after "." and "..", two of them removed (freed slots), and an
// entry written straight into file block 12, so blocks 3..11 are a hole that
// spans the direct slots and the start of the single-indirect table.
class DirWalkTest : public FsTest {
 protected:
  static constexpr int kFiles = 190;
  static constexpr uint64_t kTailSlot = 12 * (kBlockSize / kDirEntrySize);

  static std::string Name(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "f%03d", i);
    return buf;
  }

  void SetUp() override {
    FsTest::SetUp();
    offs_ = static_cast<Offs*>(fs_.get());
    ASSERT_EQ(Error::kOk, root_->Mkdir("big", 0755));
    ASSERT_EQ(Error::kOk, offs_->DirLookup(kRootIno, "big", &dir_ino_));
    ComPtr<File> node;
    ASSERT_EQ(Error::kOk, root_->Lookup("big", node.Receive()));
    dir_ = ComPtr<Dir>::FromQuery(node.get());
    for (int i = 0; i < kFiles; ++i) {
      ComPtr<File> file;
      ASSERT_EQ(Error::kOk, dir_->Create(Name(i).c_str(), 0644, file.Receive()));
      FileStat st;
      ASSERT_EQ(Error::kOk, file->GetStat(&st));
      inos_[Name(i)] = st.ino;
    }
    ASSERT_EQ(Error::kOk, dir_->Unlink(Name(10).c_str()));  // slot 12
    ASSERT_EQ(Error::kOk, dir_->Unlink(Name(100).c_str()));  // slot 102
    inos_.erase(Name(10));
    inos_.erase(Name(100));
    ComPtr<File> tail;
    ASSERT_EQ(Error::kOk, root_->Create("tail-target", 0644, tail.Receive()));
    FileStat st;
    ASSERT_EQ(Error::kOk, tail->GetStat(&st));
    DiskDirEntry entry;
    entry.ino = st.ino;
    entry.type = kModeRegular >> 12;
    entry.name_len = 4;
    std::strcpy(entry.name, "tail");
    size_t actual = 0;
    ASSERT_EQ(Error::kOk, offs_->FileWriteAt(dir_ino_, &entry, kTailSlot * kDirEntrySize,
                                             sizeof(entry), &actual));
    inos_["tail"] = st.ino;
  }

  DiskInode DirInode() {
    DiskInode inode;
    EXPECT_EQ(Error::kOk, offs_->ReadInode(dir_ino_, &inode));
    return inode;
  }

  uint64_t CacheCalls() { return offs_->cache().hits() + offs_->cache().misses(); }

  // The slot of each live entry, read one entry at a time through
  // FileReadAt: an oracle independent of the block-wise walk.
  std::vector<std::pair<uint64_t, std::string>> LiveEntries() {
    std::vector<std::pair<uint64_t, std::string>> live;
    uint64_t slots = DirInode().size / kDirEntrySize;
    for (uint64_t i = 0; i < slots; ++i) {
      DiskDirEntry entry;
      size_t actual = 0;
      EXPECT_EQ(Error::kOk, offs_->FileReadAt(dir_ino_, &entry, i * kDirEntrySize,
                                              sizeof(entry), &actual));
      if (entry.ino != 0) {
        live.emplace_back(i, entry.name);
      }
    }
    return live;
  }

  Offs* offs_ = nullptr;
  uint64_t dir_ino_ = 0;
  ComPtr<Dir> dir_;
  std::map<std::string, uint64_t> inos_;
};

TEST_F(DirWalkTest, LayoutHasFreedSlotsAndAHole) {
  DiskInode inode = DirInode();
  EXPECT_EQ((kTailSlot + 1) * kDirEntrySize, inode.size);
  EXPECT_NE(0u, inode.direct[2]);
  for (uint32_t fb = 3; fb < kDirectBlocks; ++fb) {
    EXPECT_EQ(0u, inode.direct[fb]);
  }
  EXPECT_NE(0u, inode.indirect);
  EXPECT_EQ(5u, inode.blocks);  // four data blocks and the indirect table
  auto live = LiveEntries();
  ASSERT_EQ(size_t{2 + kFiles - 2 + 1}, live.size());
  EXPECT_EQ(kTailSlot, live.back().first);
}

TEST_F(DirWalkTest, LookupFindsFirstMiddleAndLastNames) {
  for (const char* name : {"f000", "f095", "f189", "tail"}) {
    uint64_t ino = 0;
    ASSERT_EQ(Error::kOk, offs_->DirLookup(dir_ino_, name, &ino)) << name;
    EXPECT_EQ(inos_[name], ino) << name;
  }
  uint64_t ino = 0;
  EXPECT_EQ(Error::kOk, offs_->DirLookup(dir_ino_, ".", &ino));
  EXPECT_EQ(dir_ino_, ino);
  EXPECT_EQ(Error::kNoEnt, offs_->DirLookup(dir_ino_, "f010", &ino));
  EXPECT_EQ(Error::kNoEnt, offs_->DirLookup(dir_ino_, "missing", &ino));
  EXPECT_EQ(Error::kNotDir, offs_->DirLookup(inos_["f000"], "x", &ino));
}

TEST_F(DirWalkTest, AddReusesTheFirstFreeSlotThenTheHole) {
  auto slot_of = [&](const char* name) {
    for (const auto& [slot, entry] : LiveEntries()) {
      if (entry == name) {
        return slot;
      }
    }
    return ~uint64_t{0};
  };
  ASSERT_EQ(Error::kOk, offs_->DirAdd(dir_ino_, "a", inos_["f000"], kModeRegular));
  EXPECT_EQ(12u, slot_of("a"));
  ASSERT_EQ(Error::kOk, offs_->DirAdd(dir_ino_, "b", inos_["f000"], kModeRegular));
  EXPECT_EQ(102u, slot_of("b"));
  // The next free slot is the first entry of the hole, file block 3.
  ASSERT_EQ(Error::kOk, offs_->DirAdd(dir_ino_, "c", inos_["f000"], kModeRegular));
  EXPECT_EQ(192u, slot_of("c"));
  EXPECT_NE(0u, DirInode().direct[3]);
  ASSERT_EQ(Error::kOk, offs_->DirAdd(dir_ino_, "d", inos_["f000"], kModeRegular));
  EXPECT_EQ(193u, slot_of("d"));
  EXPECT_EQ((kTailSlot + 1) * kDirEntrySize, DirInode().size);
}

TEST_F(DirWalkTest, AddAppendsWhenEverySlotIsLive) {
  ASSERT_EQ(Error::kOk, root_->Mkdir("small", 0755));
  uint64_t small = 0;
  ASSERT_EQ(Error::kOk, offs_->DirLookup(kRootIno, "small", &small));
  DiskInode before;
  ASSERT_EQ(Error::kOk, offs_->ReadInode(small, &before));
  ASSERT_EQ(2 * kDirEntrySize, before.size);
  ASSERT_EQ(Error::kOk, offs_->DirAdd(small, "x", inos_["f000"], kModeRegular));
  DiskInode after;
  ASSERT_EQ(Error::kOk, offs_->ReadInode(small, &after));
  EXPECT_EQ(3 * kDirEntrySize, after.size);
  uint64_t ino = 0;
  EXPECT_EQ(Error::kOk, offs_->DirLookup(small, "x", &ino));
  EXPECT_EQ(inos_["f000"], ino);
}

TEST_F(DirWalkTest, RemoveAndIsEmpty) {
  bool empty = true;
  ASSERT_EQ(Error::kOk, offs_->DirIsEmpty(dir_ino_, &empty));
  EXPECT_FALSE(empty);
  ASSERT_EQ(Error::kOk, offs_->DirRemove(dir_ino_, "tail"));
  uint64_t ino = 0;
  EXPECT_EQ(Error::kNoEnt, offs_->DirLookup(dir_ino_, "tail", &ino));
  EXPECT_EQ(Error::kNoEnt, offs_->DirRemove(dir_ino_, "tail"));
  EXPECT_EQ(Error::kOk, offs_->DirLookup(dir_ino_, "f189", &ino));

  // Emptied down to "." and ".." (the hole stays), it reports empty.
  for (int i = 0; i < kFiles; ++i) {
    if (i != 10 && i != 100) {
      ASSERT_EQ(Error::kOk, offs_->DirRemove(dir_ino_, Name(i).c_str())) << i;
    }
  }
  ASSERT_EQ(Error::kOk, offs_->DirIsEmpty(dir_ino_, &empty));
  EXPECT_TRUE(empty);
  ASSERT_EQ(Error::kOk, offs_->DirAdd(dir_ino_, "late", inos_["tail"], kModeRegular));
  ASSERT_EQ(Error::kOk, offs_->DirIsEmpty(dir_ino_, &empty));
  EXPECT_FALSE(empty);
}

TEST_F(DirWalkTest, PagedReadReturnsEveryLiveEntryOnceInSlotOrder) {
  std::vector<std::string> expected;
  for (const auto& [slot, name] : LiveEntries()) {
    expected.push_back(name);
  }
  for (size_t capacity : {1, 3, 64, 500}) {
    std::vector<std::string> got;
    uint64_t offset = 0;
    for (int calls = 0; calls < 1000; ++calls) {
      DirEntry page[500];
      size_t count = 0;
      ASSERT_EQ(Error::kOk, offs_->DirRead(dir_ino_, &offset, page, capacity, &count));
      ASSERT_LE(count, capacity);
      if (count == 0) {
        break;
      }
      for (size_t i = 0; i < count; ++i) {
        got.push_back(page[i].name);
        if (got.back() != "." && got.back() != "..") {
          EXPECT_EQ(inos_[page[i].name], page[i].ino) << page[i].name;
        }
      }
    }
    EXPECT_EQ(expected, got) << "capacity " << capacity;
    EXPECT_EQ(kTailSlot + 1, offset);
  }
}

TEST_F(DirWalkTest, ReadDirTruncatesAnUnterminatedName) {
  // A corrupt entry whose name fills its field with no NUL: the copy out
  // stops at the field, so ReadDir returns the longest legal name.
  DiskDirEntry entry;
  entry.ino = inos_["f000"];
  entry.type = kModeRegular >> 12;
  entry.name_len = sizeof(entry.name);
  std::memset(entry.name, 'x', sizeof(entry.name));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, offs_->FileWriteAt(dir_ino_, &entry, 12 * kDirEntrySize,
                                           sizeof(entry), &actual));
  uint64_t offset = 12;
  DirEntry page[1];
  size_t count = 0;
  ASSERT_EQ(Error::kOk, offs_->DirRead(dir_ino_, &offset, page, 1, &count));
  ASSERT_EQ(1u, count);
  EXPECT_EQ(std::string(kMaxNameLen, 'x'), page[0].name);
  EXPECT_EQ(13u, offset);
}

TEST_F(DirWalkTest, LookupOfTheLastNameReadsEachBlockOnce) {
  // Three full direct blocks, no indirection: one inode read and one read
  // per directory block.
  ASSERT_EQ(Error::kOk, root_->Mkdir("flat", 0755));
  uint64_t flat = 0;
  ASSERT_EQ(Error::kOk, offs_->DirLookup(kRootIno, "flat", &flat));
  ComPtr<File> node;
  ASSERT_EQ(Error::kOk, root_->Lookup("flat", node.Receive()));
  auto dir = ComPtr<Dir>::FromQuery(node.get());
  for (int i = 0; i < 3 * 64 - 2; ++i) {
    ComPtr<File> file;
    ASSERT_EQ(Error::kOk, dir->Create(Name(i).c_str(), 0644, file.Receive()));
  }
  DiskInode inode;
  ASSERT_EQ(Error::kOk, offs_->ReadInode(flat, &inode));
  ASSERT_EQ(3u, inode.blocks);
  uint64_t before = CacheCalls();
  uint64_t ino = 0;
  ASSERT_EQ(Error::kOk, offs_->DirLookup(flat, Name(3 * 64 - 3).c_str(), &ino));
  EXPECT_LE(CacheCalls() - before, 1u + inode.blocks);

  // Through the hole and the single-indirect table: each step reads at most
  // one pointer table and one block.
  before = CacheCalls();
  ASSERT_EQ(Error::kOk, offs_->DirLookup(dir_ino_, "tail", &ino));
  EXPECT_LE(CacheCalls() - before, 1u + 2 * DirInode().blocks);
}

// Hand-built corruptions of the root directory's inode.  fsck runs on
// every crash recovery, so each must end with a reported problem, and
// quickly: no walk over a 2^40-byte size, no index past a block table.
class FsckBoundsTest : public ::testing::Test {
 protected:
  // File blocks the block map addresses: direct, single and double indirect.
  static constexpr uint64_t kMapBlocks =
      kDirectBlocks + kPointersPerBlock + uint64_t{kPointersPerBlock} * kPointersPerBlock;

  void SetUp() override {
    disk_ = MemBlkIo::Create(16 * 1024 * 1024, 512);
    ASSERT_EQ(Error::kOk, Mkfs(disk_.get()));
    std::memcpy(&sb_, disk_->data(), sizeof(sb_));
    std::memcpy(&root_, RootSlot(), sizeof(root_));
  }

  uint8_t* Block(uint32_t block) { return disk_->data() + uint64_t{block} * kBlockSize; }
  uint8_t* RootSlot() { return Block(sb_.itable_start) + kRootIno * kInodeSize; }
  void StoreRoot() { std::memcpy(RootSlot(), &root_, sizeof(root_)); }
  void SetPointer(uint32_t table, uint32_t slot, uint32_t block) {
    std::memcpy(Block(table) + slot * 4, &block, 4);
  }

  trace::TraceEnv tenv_;
  ComPtr<MemBlkIo> disk_;
  SuperBlock sb_;
  DiskInode root_;
};

TEST_F(FsckBoundsTest, DirectoryOfTwoToTheFortyBytesIsReported) {
  root_.size = uint64_t{1} << 40;
  StoreRoot();
  FsckReport report = Fsck(disk_.get());
  EXPECT_TRUE(report.superblock_valid);
  EXPECT_FALSE(report.consistent);
  EXPECT_TRUE(HasProblem(report, "past the block map's range"));
}

TEST_F(FsckBoundsTest, DirectoryReadPastDoubleIndirectRangeIsReported) {
  // The last block the map can address, reached through the last slot of
  // the double-indirect table and of its last middle table, holds a copy
  // of the root's first block with '.' pointing elsewhere, so the report
  // shows it was read; the size reaches one block past it.
  uint32_t outer = sb_.total_blocks - 1;
  uint32_t mid = sb_.total_blocks - 2;
  uint32_t last = sb_.total_blocks - 3;
  std::memcpy(Block(last), Block(root_.direct[0]), kBlockSize);
  uint64_t stray_ino = 7;
  std::memcpy(Block(last), &stray_ino, sizeof(stray_ino));
  SetPointer(outer, kPointersPerBlock - 1, mid);
  SetPointer(mid, kPointersPerBlock - 1, last);
  root_.double_indirect = outer;
  root_.size = (kMapBlocks + 1) * kBlockSize;
  StoreRoot();
  FsckReport report = Fsck(disk_.get());
  EXPECT_FALSE(report.consistent);
  EXPECT_TRUE(HasProblem(report, "'.' points to 7"));
  EXPECT_TRUE(HasProblem(report, "past the block map's range"));
}

TEST_F(FsckBoundsTest, DirectoryMappingMoreBlocksThanItHoldsIsReported) {
  // Every direct slot names the same block: it is claimed once, so the
  // directory holds one block but maps ten.
  for (uint32_t i = 1; i < kDirectBlocks; ++i) {
    root_.direct[i] = root_.direct[0];
  }
  root_.size = uint64_t{kDirectBlocks} * kBlockSize;
  StoreRoot();
  FsckReport report = Fsck(disk_.get());
  EXPECT_FALSE(report.consistent);
  EXPECT_TRUE(HasProblem(report, "maps more than the 1 blocks it holds"));
}

// The same mutated roots through the mounted filesystem: a directory walk is
// bounded by the inode's block map and held blocks, not by its size field.
Offs* MountForWalk(MemBlkIo* disk, trace::TraceEnv* trace, ComPtr<FileSystem>* fs,
                   ComPtr<Dir>* root) {
  FileSystem* raw = nullptr;
  EXPECT_EQ(Error::kOk, Offs::Mount(disk, {.trace = trace}, &raw));
  *fs = ComPtr<FileSystem>(raw);
  EXPECT_EQ(Error::kOk, (*fs)->GetRoot(root->Receive()));
  return static_cast<Offs*>(raw);
}

TEST_F(FsckBoundsTest, LookupInDirectoryOfTwoToTheFortyBytesIsCorrupt) {
  root_.size = uint64_t{1} << 40;
  StoreRoot();
  ComPtr<FileSystem> fs;
  ComPtr<Dir> root;
  Offs* offs = MountForWalk(disk_.get(), &tenv_, &fs, &root);
  uint64_t before = offs->cache().hits() + offs->cache().misses();
  ComPtr<File> file;
  EXPECT_EQ(Error::kCorrupt, root->Lookup("missing", file.Receive()));
  // The inode read only: no directory block is read.
  EXPECT_LE(offs->cache().hits() + offs->cache().misses() - before, 1u);
  bool empty = false;
  EXPECT_EQ(Error::kCorrupt, offs->DirIsEmpty(kRootIno, &empty));
  EXPECT_EQ(Error::kCorrupt, offs->DirAdd(kRootIno, "x", kRootIno, kModeRegular));
}

TEST_F(FsckBoundsTest, WalkSkipsUnmappedRangesAndStopsAfterHeldBlocks) {
  // The whole map's range, with only the first block mapped: the direct
  // hole and the absent indirect tables are one step each.
  root_.size = kMapBlocks * kBlockSize;
  StoreRoot();
  {
    ComPtr<FileSystem> fs;
    ComPtr<Dir> root;
    Offs* offs = MountForWalk(disk_.get(), &tenv_, &fs, &root);
    uint64_t before = offs->cache().hits() + offs->cache().misses();
    ComPtr<File> file;
    EXPECT_EQ(Error::kNoEnt, root->Lookup("missing", file.Receive()));
    EXPECT_LE(offs->cache().hits() + offs->cache().misses() - before, 2u);
    root.Reset();
    EXPECT_EQ(Error::kOk, fs->Unmount());
  }
  // Every direct slot names the root's one held block: the walk reads it
  // once and stops.
  std::memcpy(&root_, RootSlot(), sizeof(root_));
  for (uint32_t i = 1; i < kDirectBlocks; ++i) {
    root_.direct[i] = root_.direct[0];
  }
  root_.size = uint64_t{kDirectBlocks} * kBlockSize;
  StoreRoot();
  ComPtr<FileSystem> fs;
  ComPtr<Dir> root;
  Offs* offs = MountForWalk(disk_.get(), &tenv_, &fs, &root);
  uint64_t before = offs->cache().hits() + offs->cache().misses();
  ComPtr<File> file;
  EXPECT_EQ(Error::kNoEnt, root->Lookup("missing", file.Receive()));
  EXPECT_LE(offs->cache().hits() + offs->cache().misses() - before, 2u);
}

// Mutated images from a byte-scribbling probe of fsck: a 4 MB volume with
// three directories of five files each, with the stored (offset, byte)
// pairs written over its first 64 KB.  Before the bounds, the first kept
// fsck walking a root directory whose size grew to about 2^40 bytes, and
// the second crashed indexing its block map with a data_start past the
// volume.
struct Scribble {
  uint32_t offset;
  uint8_t byte;
};

FsckReport FsckScribbledImage(const std::vector<Scribble>& scribbles) {
  trace::TraceEnv tenv;
  auto disk = MemBlkIo::Create(4 * 1024 * 1024, 512);
  EXPECT_EQ(Error::kOk, Mkfs(disk.get()));
  FileSystem* raw = nullptr;
  EXPECT_EQ(Error::kOk, Offs::Mount(disk.get(), {.trace = &tenv}, &raw));
  ComPtr<FileSystem> fs(raw);
  ComPtr<Dir> root;
  EXPECT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
  for (int d = 0; d < 3; ++d) {
    std::string dir_name = "d" + std::to_string(d);
    EXPECT_EQ(Error::kOk, root->Mkdir(dir_name.c_str(), 0755));
    ComPtr<File> node;
    EXPECT_EQ(Error::kOk, root->Lookup(dir_name.c_str(), node.Receive()));
    auto dir = ComPtr<Dir>::FromQuery(node.get());
    for (int f = 0; f < 5; ++f) {
      std::string file_name = "f" + std::to_string(f);
      ComPtr<File> file;
      EXPECT_EQ(Error::kOk, dir->Create(file_name.c_str(), 0644, file.Receive()));
      std::vector<char> data(3000 * (f + 1), static_cast<char>('a' + f));
      size_t actual = 0;
      EXPECT_EQ(Error::kOk, file->Write(data.data(), 0, data.size(), &actual));
    }
  }
  root.Reset();
  EXPECT_EQ(Error::kOk, fs->Unmount());
  for (const Scribble& s : scribbles) {
    disk->data()[s.offset] = s.byte;
  }
  return Fsck(disk.get());
}

TEST(FsckScribbleTest, RootSizeNearTwoToTheFortyIsReported) {
  FsckReport report = FsckScribbledImage(
      {{7354, 0xb5}, {47467, 0xd0}, {58804, 0x2f}, {47120, 0xcc}, {46171, 0x48},
       {48195, 0xa5}, {41238, 0x9d}, {35829, 0xa5}, {8340, 0xcf}, {7799, 0x68},
       {26617, 0x6e}, {19851, 0x85}});
  EXPECT_FALSE(report.consistent);
  EXPECT_TRUE(HasProblem(report, "directory 1 size"));
}

TEST(FsckScribbleTest, DataStartPastTheVolumeIsReported) {
  FsckReport report = FsckScribbledImage(
      {{4068, 0xfa}, {2843, 0x80}, {43151, 0xeb}, {47780, 0x7a}, {2315, 0xc3},
       {4790, 0x44}, {22507, 0x9a}, {42793, 0xe2}, {38, 0xbe}, {24280, 0x4a},
       {14360, 0xeb}, {52584, 0xf3}, {21204, 0x15}, {59060, 0x61}, {53336, 0xcc}});
  EXPECT_FALSE(report.superblock_valid);
  ASSERT_EQ(1u, report.problems.size());
  EXPECT_EQ("bad or unreadable superblock", report.problems[0]);
}

}  // namespace
}  // namespace oskit::fs
