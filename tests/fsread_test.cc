// fsread tests: the independent boot-time reader must agree with the full
// filesystem component on the same on-disk image (format cross-check).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/com/memblkio.h"
#include "src/fs/ffs.h"
#include "src/fsread/fsread.h"

namespace oskit {
namespace {

class FsReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::TraceEnv tenv;
    disk_ = MemBlkIo::Create(8 * 1024 * 1024, 512);
    ASSERT_EQ(Error::kOk, fs::Mkfs(disk_.get()));
    FileSystem* raw = nullptr;
    ASSERT_EQ(Error::kOk, fs::Offs::Mount(disk_.get(), {.trace = &tenv}, &raw));
    ComPtr<FileSystem> fs(raw);
    ComPtr<Dir> root;
    ASSERT_EQ(Error::kOk, fs->GetRoot(root.Receive()));

    // Populate: /kernel, /boot/modules/init.kvm, /boot/readme.
    ComPtr<File> f;
    ASSERT_EQ(Error::kOk, root->Create("kernel", 0755, f.Receive()));
    kernel_data_.resize(300 * 1024);
    for (size_t i = 0; i < kernel_data_.size(); ++i) {
      kernel_data_[i] = static_cast<uint8_t>(i * 13 + (i >> 8));
    }
    size_t actual = 0;
    ASSERT_EQ(Error::kOk,
              f->Write(kernel_data_.data(), 0, kernel_data_.size(), &actual));

    ASSERT_EQ(Error::kOk, root->Mkdir("boot", 0755));
    ComPtr<File> bootf;
    ASSERT_EQ(Error::kOk, root->Lookup("boot", bootf.Receive()));
    ComPtr<Dir> boot = ComPtr<Dir>::FromQuery(bootf.get());
    ASSERT_EQ(Error::kOk, boot->Mkdir("modules", 0755));
    ComPtr<File> modf;
    ASSERT_EQ(Error::kOk, boot->Lookup("modules", modf.Receive()));
    ComPtr<Dir> modules = ComPtr<Dir>::FromQuery(modf.get());
    ComPtr<File> init;
    ASSERT_EQ(Error::kOk, modules->Create("init.kvm", 0644, init.Receive()));
    ASSERT_EQ(Error::kOk, init->Write("bytecode!", 0, 9, &actual));
    ComPtr<File> readme;
    ASSERT_EQ(Error::kOk, boot->Create("readme", 0644, readme.Receive()));
    ASSERT_EQ(Error::kOk, readme->Write("docs", 0, 4, &actual));

    f.Reset();
    init.Reset();
    readme.Reset();
    modules.Reset();
    modf.Reset();
    boot.Reset();
    bootf.Reset();
    root.Reset();
    ASSERT_EQ(Error::kOk, fs->Unmount());
  }

  ComPtr<MemBlkIo> disk_;
  std::vector<uint8_t> kernel_data_;
};

TEST_F(FsReadTest, ReadsLargeFileExactly) {
  std::vector<uint8_t> data;
  ASSERT_EQ(Error::kOk, fsread::ReadFile(disk_.get(), "/kernel", &data));
  ASSERT_EQ(kernel_data_.size(), data.size());
  EXPECT_EQ(0, memcmp(kernel_data_.data(), data.data(), data.size()));
}

TEST_F(FsReadTest, WalksNestedPaths) {
  std::vector<uint8_t> data;
  ASSERT_EQ(Error::kOk,
            fsread::ReadFile(disk_.get(), "/boot/modules/init.kvm", &data));
  EXPECT_EQ("bytecode!", std::string(data.begin(), data.end()));
  // Leading/duplicate slashes are tolerated.
  ASSERT_EQ(Error::kOk, fsread::ReadFile(disk_.get(), "//boot//readme", &data));
  EXPECT_EQ("docs", std::string(data.begin(), data.end()));
}

TEST_F(FsReadTest, StatAndErrors) {
  uint64_t ino = 0;
  uint64_t size = 0;
  bool is_dir = false;
  ASSERT_EQ(Error::kOk, fsread::StatPath(disk_.get(), "/boot", &ino, &size, &is_dir));
  EXPECT_TRUE(is_dir);
  ASSERT_EQ(Error::kOk,
            fsread::StatPath(disk_.get(), "/kernel", &ino, &size, &is_dir));
  EXPECT_FALSE(is_dir);
  EXPECT_EQ(kernel_data_.size(), size);

  std::vector<uint8_t> data;
  EXPECT_EQ(Error::kNoEnt, fsread::ReadFile(disk_.get(), "/absent", &data));
  EXPECT_EQ(Error::kIsDir, fsread::ReadFile(disk_.get(), "/boot", &data));
  EXPECT_EQ(Error::kNotDir,
            fsread::ReadFile(disk_.get(), "/kernel/inside", &data));
}

TEST_F(FsReadTest, ListsDirectory) {
  std::vector<std::string> names;
  ASSERT_EQ(Error::kOk, fsread::ListDir(disk_.get(), "/boot", &names));
  // ".", "..", "modules", "readme"
  EXPECT_EQ(4u, names.size());
  bool saw_modules = false;
  bool saw_readme = false;
  for (const std::string& n : names) {
    saw_modules |= n == "modules";
    saw_readme |= n == "readme";
  }
  EXPECT_TRUE(saw_modules);
  EXPECT_TRUE(saw_readme);
}

TEST_F(FsReadTest, RejectsGarbageDisk) {
  auto blank = MemBlkIo::Create(1024 * 1024, 512);
  std::vector<uint8_t> data;
  EXPECT_EQ(Error::kCorrupt, fsread::ReadFile(blank.get(), "/x", &data));
}

}  // namespace
}  // namespace oskit
