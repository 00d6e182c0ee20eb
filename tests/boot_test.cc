// MultiBoot + boot-module filesystem tests (§3.1, §6.2.2).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/boot/memfs.h"
#include "src/boot/multiboot.h"
#include "tests/bounds_abuse.h"

namespace oskit {
namespace {

TEST(BootLoaderTest, PlacesModulesInPhysicalMemory) {
  PhysMem phys(8 * 1024 * 1024);
  BootLoader loader(&phys);
  std::string m1(5000, 'a');
  std::string m2 = "tiny";
  loader.AddModule("first.img arg1 arg2", m1.data(), m1.size());
  loader.AddModule("second.bin", m2.data(), m2.size());
  MultiBootInfo info = loader.Load("kernel root=/dev/hda1");

  EXPECT_EQ("kernel root=/dev/hda1", info.cmdline);
  EXPECT_EQ(640u, info.mem_lower_kb);
  ASSERT_EQ(2u, info.modules.size());

  const BootModule& a = info.modules[0];
  const BootModule& b = info.modules[1];
  EXPECT_EQ("first.img arg1 arg2", a.string);
  EXPECT_EQ("first.img", BootModuleName(a));
  EXPECT_EQ(5000u, a.end - a.start);
  EXPECT_EQ(0u, a.start % 4096);  // page aligned
  EXPECT_EQ(4u, b.end - b.start);

  // Modules must not overlap, and contents must be in place.
  EXPECT_TRUE(a.end <= b.start || b.end <= a.start);
  EXPECT_EQ(0, memcmp(phys.PtrAt(a.start), m1.data(), m1.size()));
  EXPECT_EQ(0, memcmp(phys.PtrAt(b.start), m2.data(), m2.size()));
}

TEST(BmodFsTest, ModulesAppearAsFiles) {
  PhysMem phys(8 * 1024 * 1024);
  BootLoader loader(&phys);
  const char kImage[] = "bytecode-image-contents";
  loader.AddModule("program.kvm --fast", kImage, sizeof(kImage));
  MultiBootInfo info = loader.Load("");

  auto fs = MemFs::BuildBmodFs(&phys, info);
  ComPtr<Dir> root;
  ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));
  ComPtr<File> file;
  ASSERT_EQ(Error::kOk, root->Lookup("program.kvm", file.Receive()));
  FileStat st;
  ASSERT_EQ(Error::kOk, file->GetStat(&st));
  EXPECT_EQ(sizeof(kImage), st.size);
  char buf[64] = {};
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, file->Read(buf, 0, sizeof(buf), &actual));
  EXPECT_EQ(sizeof(kImage), actual);
  EXPECT_STREQ(kImage, buf);
}

class MemFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = MemFs::Create();
    ASSERT_EQ(Error::kOk, fs_->GetRoot(root_.Receive()));
  }

  ComPtr<MemFs> fs_;
  ComPtr<Dir> root_;
};

TEST_F(MemFsTest, CreateWriteReadFile) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("x", 0600, f.Receive()));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, f->Write("data", 0, 4, &actual));
  // Sparse write past EOF zero-fills.
  ASSERT_EQ(Error::kOk, f->Write("!", 100, 1, &actual));
  FileStat st;
  f->GetStat(&st);
  EXPECT_EQ(101u, st.size);
  char buf[101];
  ASSERT_EQ(Error::kOk, f->Read(buf, 0, sizeof(buf), &actual));
  EXPECT_EQ(0, memcmp(buf, "data", 4));
  EXPECT_EQ(0, buf[50]);
  EXPECT_EQ('!', buf[100]);
}

// A file keeps the kit's bounds discipline: a wrapping range is kInval, a
// read past EOF is an empty success, and a size the filesystem cannot hold
// is kNoMem, never a scribble or an exception out of the COM call.
TEST_F(MemFsTest, FileBoundsDiscipline) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("x", 0600, f.Receive()));
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, f->Write("01234567", 0, 8, &actual));

  testing::AbuseReadBounds(f.get(), 8, testing::PastEnd::kEofOk);
  testing::AbuseWriteBounds(f.get(), 8, testing::PastEnd::kEofOk);
  EXPECT_EQ(Error::kNoMem, f->SetSize(uint64_t{1} << 62));
  EXPECT_EQ(Error::kNoMem, f->Write("!", uint64_t{1} << 62, 1, &actual));
  EXPECT_EQ(0u, actual);

  FileStat st;
  ASSERT_EQ(Error::kOk, f->GetStat(&st));
  EXPECT_EQ(8u, st.size);
  char buf[8];
  ASSERT_EQ(Error::kOk, f->Read(buf, 0, sizeof(buf), &actual));
  EXPECT_EQ(0, memcmp(buf, "01234567", 8));
}

TEST_F(MemFsTest, LookupDotAndDotDot) {
  ASSERT_EQ(Error::kOk, root_->Mkdir("sub", 0755));
  ComPtr<File> sub_file;
  ASSERT_EQ(Error::kOk, root_->Lookup("sub", sub_file.Receive()));
  ComPtr<Dir> sub = ComPtr<Dir>::FromQuery(sub_file.get());
  ASSERT_TRUE(sub);

  ComPtr<File> dot;
  ASSERT_EQ(Error::kOk, sub->Lookup(".", dot.Receive()));
  ComPtr<File> dotdot;
  ASSERT_EQ(Error::kOk, sub->Lookup("..", dotdot.Receive()));
  FileStat sub_stat;
  FileStat dot_stat;
  FileStat dotdot_stat;
  FileStat root_stat;
  sub->GetStat(&sub_stat);
  dot->GetStat(&dot_stat);
  dotdot->GetStat(&dotdot_stat);
  root_->GetStat(&root_stat);
  EXPECT_EQ(sub_stat.ino, dot_stat.ino);
  EXPECT_EQ(root_stat.ino, dotdot_stat.ino);
}

TEST_F(MemFsTest, SlashInComponentRejected) {
  ComPtr<File> f;
  EXPECT_EQ(Error::kInval, root_->Lookup("a/b", f.Receive()));
  EXPECT_EQ(Error::kInval, root_->Create("a/b", 0644, f.Receive()));
}

TEST_F(MemFsTest, RenameAcrossDirectories) {
  ASSERT_EQ(Error::kOk, root_->Mkdir("src", 0755));
  ASSERT_EQ(Error::kOk, root_->Mkdir("dst", 0755));
  ComPtr<File> src_file;
  ASSERT_EQ(Error::kOk, root_->Lookup("src", src_file.Receive()));
  ComPtr<Dir> src = ComPtr<Dir>::FromQuery(src_file.get());
  ComPtr<File> dst_file;
  ASSERT_EQ(Error::kOk, root_->Lookup("dst", dst_file.Receive()));
  ComPtr<Dir> dst = ComPtr<Dir>::FromQuery(dst_file.get());

  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, src->Create("payload", 0644, f.Receive()));
  size_t actual;
  f->Write("move me", 0, 7, &actual);

  ASSERT_EQ(Error::kOk, src->Rename("payload", dst.get(), "renamed"));
  EXPECT_EQ(Error::kNoEnt, src->Lookup("payload", f.Receive()));
  ASSERT_EQ(Error::kOk, dst->Lookup("renamed", f.Receive()));
  char buf[8] = {};
  f->Read(buf, 0, 7, &actual);
  EXPECT_STREQ("move me", buf);
}

TEST_F(MemFsTest, RenameIntoOwnSubtreeIsRefused) {
  ASSERT_EQ(Error::kOk, root_->Mkdir("outer", 0755));
  ComPtr<File> of;
  ASSERT_EQ(Error::kOk, root_->Lookup("outer", of.Receive()));
  ComPtr<Dir> outer = ComPtr<Dir>::FromQuery(of.get());
  ASSERT_EQ(Error::kOk, outer->Mkdir("inner", 0755));
  ComPtr<File> inf;
  ASSERT_EQ(Error::kOk, outer->Lookup("inner", inf.Receive()));
  ComPtr<Dir> inner = ComPtr<Dir>::FromQuery(inf.get());
  EXPECT_EQ(Error::kInval, root_->Rename("outer", inner.get(), "cycle"));
  EXPECT_EQ(Error::kInval, root_->Rename("outer", outer.get(), "self"));
  ComPtr<File> check;
  EXPECT_EQ(Error::kOk, root_->Lookup("outer", check.Receive()));
}

TEST_F(MemFsTest, ReadDirEnumeratesAll) {
  for (char c = 'a'; c <= 'e'; ++c) {
    char name[2] = {c, 0};
    ComPtr<File> f;
    ASSERT_EQ(Error::kOk, root_->Create(name, 0644, f.Receive()));
  }
  uint64_t offset = 0;
  DirEntry entries[2];
  std::string all;
  for (;;) {
    size_t count = 0;
    ASSERT_EQ(Error::kOk, root_->ReadDir(&offset, entries, 2, &count));
    if (count == 0) {
      break;
    }
    for (size_t i = 0; i < count; ++i) {
      all += entries[i].name;
    }
  }
  EXPECT_EQ("abcde", all);
}

TEST_F(MemFsTest, UnlinkedOpenFileStaysReadable) {
  ComPtr<File> f;
  ASSERT_EQ(Error::kOk, root_->Create("ghost", 0644, f.Receive()));
  size_t actual;
  f->Write("boo", 0, 3, &actual);
  ASSERT_EQ(Error::kOk, root_->Unlink("ghost"));
  char buf[4] = {};
  ASSERT_EQ(Error::kOk, f->Read(buf, 0, 3, &actual));
  EXPECT_STREQ("boo", buf);
}

TEST_F(MemFsTest, ErrorCases) {
  ComPtr<File> f;
  EXPECT_EQ(Error::kNoEnt, root_->Lookup("missing", f.Receive()));
  ASSERT_EQ(Error::kOk, root_->Create("file", 0644, f.Receive()));
  EXPECT_EQ(Error::kExist, root_->Create("file", 0644, f.Receive()));
  EXPECT_EQ(Error::kExist, root_->Mkdir("file", 0755));
  EXPECT_EQ(Error::kNotDir, root_->Rmdir("file"));
  ASSERT_EQ(Error::kOk, root_->Mkdir("dir", 0755));
  EXPECT_EQ(Error::kIsDir, root_->Unlink("dir"));
  ComPtr<File> d;
  ASSERT_EQ(Error::kOk, root_->Lookup("dir", d.Receive()));
  char byte = 0;
  size_t actual = 99;
  EXPECT_EQ(Error::kIsDir, d->Read(&byte, 0, 1, &actual));
  EXPECT_EQ(0u, actual);
  EXPECT_EQ(Error::kIsDir, d->Write(&byte, 0, 1, &actual));
  EXPECT_EQ(Error::kIsDir, d->SetSize(0));
  ComPtr<Dir> dir = ComPtr<Dir>::FromQuery(d.get());
  ComPtr<File> inner;
  ASSERT_EQ(Error::kOk, dir->Create("occupant", 0644, inner.Receive()));
  EXPECT_EQ(Error::kNotEmpty, root_->Rmdir("dir"));
}

}  // namespace
}  // namespace oskit
