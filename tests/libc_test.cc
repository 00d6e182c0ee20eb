// Minimal C library tests (§3.4): string routines, the printf core, the
// putchar-override chain (§4.3.1), malloc, and the POSIX fd layer.

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/boot/memfs.h"
#include "src/libc/format.h"
#include "src/libc/malloc.h"
#include "src/libc/posix.h"
#include "src/libc/stdio.h"
#include "src/libc/string.h"

namespace oskit::libc {
namespace {

TEST(StringTest, BasicOps) {
  EXPECT_EQ(5u, Strlen("hello"));
  EXPECT_EQ(0u, Strlen(""));
  EXPECT_EQ(3u, Strnlen("hello", 3));

  char buf[16];
  Strcpy(buf, "abc");
  EXPECT_STREQ("abc", buf);
  Strcat(buf, "def");
  EXPECT_STREQ("abcdef", buf);

  EXPECT_EQ(0, Strcmp("same", "same"));
  EXPECT_LT(Strcmp("abc", "abd"), 0);
  EXPECT_GT(Strcmp("b", "a"), 0);
  EXPECT_EQ(0, Strncmp("abcdef", "abcxyz", 3));
  EXPECT_EQ(0, Strcasecmp("MiXeD", "mIxEd"));

  EXPECT_STREQ("llo", Strchr("hello", 'l'));
  EXPECT_EQ(nullptr, Strchr("hello", 'z'));
  EXPECT_EQ(Strrchr("hello", 'l'), Strchr("hello", 'l') + 1);
  EXPECT_STREQ("world", Strstr("hello world", "world"));
  EXPECT_EQ(nullptr, Strstr("hello", "xyz"));
}

TEST(StringTest, StrlcpyTruncates) {
  char buf[4];
  size_t n = Strlcpy(buf, "truncate-me", sizeof(buf));
  EXPECT_EQ(11u, n);  // reports the full source length
  EXPECT_STREQ("tru", buf);
}

TEST(StringTest, MemOps) {
  uint8_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint8_t b[8] = {};
  Memcpy(b, a, 8);
  EXPECT_EQ(0, Memcmp(a, b, 8));
  // Overlapping Memmove, both directions.
  Memmove(a + 2, a, 4);
  EXPECT_EQ(1, a[2]);
  EXPECT_EQ(4, a[5]);
  uint8_t c[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  Memmove(c, c + 2, 4);
  EXPECT_EQ(3, c[0]);
  EXPECT_EQ(6, c[3]);
  Memset(b, 0xee, 8);
  EXPECT_EQ(0xee, b[7]);
  b[3] = 0x42;
  EXPECT_EQ(b + 3, Memchr(b, 0x42, 8));
  EXPECT_EQ(nullptr, Memchr(b, 0x11, 8));
}

TEST(StringTest, Strtol) {
  const char* end = nullptr;
  EXPECT_EQ(42, Strtol("42", &end, 10));
  EXPECT_EQ('\0', *end);
  EXPECT_EQ(-17, Strtol("  -17zz", &end, 10));
  EXPECT_STREQ("zz", end);
  EXPECT_EQ(255, Strtol("0xff", nullptr, 0));
  EXPECT_EQ(8, Strtol("010", nullptr, 0));
  EXPECT_EQ(10, Strtol("010", nullptr, 10));
  EXPECT_EQ(0, Strtol("junk", &end, 10));
  EXPECT_EQ(123, Atoi("123"));
  // Saturates at LONG_MAX and LONG_MIN, as C's strtol does, and still
  // consumes every digit.
  EXPECT_EQ(LONG_MAX, Strtol("9223372036854775807", &end, 10));
  EXPECT_EQ(LONG_MAX, Strtol("9223372036854775808", &end, 10));
  EXPECT_EQ('\0', *end);
  EXPECT_EQ(LONG_MAX, Strtol("99999999999999999999", &end, 10));
  EXPECT_EQ('\0', *end);
  EXPECT_EQ(LONG_MIN, Strtol("-9223372036854775808", &end, 10));
  EXPECT_EQ(LONG_MIN, Strtol("-9223372036854775809", &end, 10));
  EXPECT_EQ(LONG_MIN, Strtol("-99999999999999999999 rest", &end, 10));
  EXPECT_STREQ(" rest", end);
  EXPECT_EQ(LONG_MAX, Strtol("0x8000000000000000", nullptr, 0));
}

TEST(StringTest, StrtoulSaturatesPastTwoToTheSixtyFour) {
  const char* end = nullptr;
  EXPECT_EQ(ULONG_MAX, Strtoul("18446744073709551615", &end, 10));
  EXPECT_EQ('\0', *end);
  EXPECT_EQ(ULONG_MAX, Strtoul("18446744073709551616", &end, 10));
  EXPECT_EQ('\0', *end);
  // Every digit is consumed, and a sign does not undo the saturation.
  EXPECT_EQ(ULONG_MAX, Strtoul("99999999999999999999999 rest", &end, 0));
  EXPECT_STREQ(" rest", end);
  EXPECT_EQ(ULONG_MAX, Strtoul("-99999999999999999999999", &end, 10));
  EXPECT_EQ(ULONG_MAX, Strtoul("0x10000000000000000", &end, 0));
  EXPECT_EQ(0xffffffffffffffffUL, Strtoul("0xffffffffffffffff", &end, 0));
  EXPECT_EQ(~0x10UL + 1, Strtoul("-16", &end, 10));  // in range: negated
}

// Strtol and Strtoul agree with the host's strtol and strtoul, value and
// end pointer, on seeded strings built from the pieces that steer a parse:
// whitespace, signs, "0x" with and without a hex digit after it, digits and
// letters on both sides of each base's edge, runs that overflow, and the
// empty string.  No 'b': a C23 host reads "0b1" as binary.
TEST(StringTest, StrtolAndStrtoulMatchTheHost) {
  static const char* const kPieces[] = {
      " ", "\t", "\n", "+", "-", "0", "0x", "0X", "x", "1", "7", "8", "9", "a",
      "f", "F", "g", "z", "99999999999999999999", "ffffffffffffffff",
      "8000000000000000", "7fffffffffffffff"};
  std::vector<std::string> inputs = {"", "0x", "0xg", " -0x", "+", "-", " ", "0",
                                     "-9223372036854775809", "18446744073709551616"};
  Rng rng(0x57a7);
  for (int i = 0; i < 5000; ++i) {
    std::string s;
    for (uint64_t n = rng.Below(6); n > 0; --n) {
      s += kPieces[rng.Below(sizeof(kPieces) / sizeof(kPieces[0]))];
    }
    inputs.push_back(s);
  }
  for (const std::string& input : inputs) {
    const char* s = input.c_str();
    for (int base : {0, 8, 10, 16, 36}) {
      char* host_end = nullptr;
      const char* end = nullptr;
      long want = std::strtol(s, &host_end, base);
      ASSERT_EQ(want, Strtol(s, &end, base)) << '"' << input << "\" base " << base;
      ASSERT_EQ(host_end - s, end - s) << "Strtol \"" << input << "\" base " << base;
      unsigned long uwant = std::strtoul(s, &host_end, base);
      ASSERT_EQ(uwant, Strtoul(s, &end, base)) << '"' << input << "\" base " << base;
      ASSERT_EQ(host_end - s, end - s) << "Strtoul \"" << input << "\" base " << base;
    }
  }
}

// The printf core, checked against the host's snprintf for a matrix of
// format strings.
class FormatTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FormatTest, MatchesHostPrintf) {
  const char* format = GetParam();
  char ours[256];
  char host[256];
  Snprintf(ours, sizeof(ours), format, 12345);
  snprintf(host, sizeof(host), format, 12345);
  EXPECT_STREQ(host, ours) << "format: " << format;
}

INSTANTIATE_TEST_SUITE_P(IntFormats, FormatTest,
                         ::testing::Values("%d", "%i", "%u", "%x", "%X", "%o", "%8d",
                                           "%-8d|", "%08d", "%+d", "% d", "%#x",
                                           "%#o", "%.8d", "%12.6d", "%-12.6d|"));

TEST(FormatTest, Strings) {
  char buf[64];
  Snprintf(buf, sizeof(buf), "[%s]", "text");
  EXPECT_STREQ("[text]", buf);
  Snprintf(buf, sizeof(buf), "[%8s]", "text");
  EXPECT_STREQ("[    text]", buf);
  Snprintf(buf, sizeof(buf), "[%-8s]", "text");
  EXPECT_STREQ("[text    ]", buf);
  Snprintf(buf, sizeof(buf), "[%.2s]", "text");
  EXPECT_STREQ("[te]", buf);
  const char* volatile null_str = nullptr;  // launder past -Wformat checks
  Snprintf(buf, sizeof(buf), "[%s]", null_str);
  EXPECT_STREQ("[(null)]", buf);
}

TEST(FormatTest, CharsAndPercent) {
  char buf[64];
  Snprintf(buf, sizeof(buf), "%c%c%c %d%%", 'a', 'b', 'c', 50);
  EXPECT_STREQ("abc 50%", buf);
}

TEST(FormatTest, LongModifiers) {
  char buf[64];
  Snprintf(buf, sizeof(buf), "%ld %lld %zu", 123456789L, -9876543210LL,
           static_cast<size_t>(42));
  EXPECT_STREQ("123456789 -9876543210 42", buf);
}

TEST(FormatTest, ReturnsFullLengthOnTruncation) {
  char buf[8];
  int n = Snprintf(buf, sizeof(buf), "0123456789");
  EXPECT_EQ(10, n);
  EXPECT_STREQ("0123456", buf);  // NUL-terminated at capacity
}

TEST(FormatTest, WidthByStar) {
  char buf[32];
  Snprintf(buf, sizeof(buf), "%*d", 6, 42);
  EXPECT_STREQ("    42", buf);
  Snprintf(buf, sizeof(buf), "%-*d|", 6, 42);
  EXPECT_STREQ("42    |", buf);
}

// §4.3.1: "the client OS can obtain basic formatted console output simply by
// providing a putchar function and nothing else."
TEST(ConsoleOutTest, PrintfGoesThroughPutcharOverride) {
  ConsoleOut out;
  static std::string sink;
  sink.clear();
  out.SetPutchar(
      +[](void*, int c) -> int {
        sink.push_back(static_cast<char>(c));
        return c;
      },
      nullptr);
  out.Printf("n=%d s=%s", 7, "ok");
  EXPECT_EQ("n=7 s=ok", sink);
  out.Puts("line");
  EXPECT_EQ("n=7 s=okline\n", sink);  // default puts rides on putchar
}

TEST(ConsoleOutTest, DefaultCapturesOutput) {
  ConsoleOut out;
  out.Printf("hello %d", 1);
  EXPECT_EQ("hello 1", out.TakeCaptured());
  EXPECT_EQ("", out.TakeCaptured());
}

TEST(ConsoleOutTest, PutsOverrideTakesPriority) {
  ConsoleOut out;
  static int puts_calls;
  puts_calls = 0;
  out.SetPuts(
      +[](void*, const char*) -> int {
        ++puts_calls;
        return 0;
      },
      nullptr);
  out.Puts("x");
  EXPECT_EQ(1, puts_calls);
  EXPECT_EQ("", out.TakeCaptured());
}

TEST(MallocTest, BasicLifecycle) {
  MallocArena arena(HostMemEnv());
  void* p = arena.Malloc(100);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(100u, arena.UsableSize(p));
  EXPECT_EQ(100u, arena.bytes_in_use());
  EXPECT_EQ(1u, arena.blocks_in_use());
  memset(p, 0xab, 100);
  arena.Free(p);
  EXPECT_EQ(0u, arena.bytes_in_use());
  EXPECT_EQ(0u, arena.blocks_in_use());
}

TEST(MallocTest, CallocZeroesAndChecksOverflow) {
  MallocArena arena(HostMemEnv());
  auto* p = static_cast<uint8_t*>(arena.Calloc(10, 10));
  ASSERT_NE(nullptr, p);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(0, p[i]);
  }
  arena.Free(p);
  EXPECT_EQ(nullptr, arena.Calloc(static_cast<size_t>(-1), 16));
}

TEST(MallocTest, ReallocPreservesContents) {
  MallocArena arena(HostMemEnv());
  auto* p = static_cast<char*>(arena.Malloc(8));
  memcpy(p, "1234567", 8);
  auto* q = static_cast<char*>(arena.Realloc(p, 64));
  ASSERT_NE(nullptr, q);
  EXPECT_STREQ("1234567", q);
  arena.Free(q);
}

TEST(MallocTest, MemalignAligns) {
  MallocArena arena(HostMemEnv());
  for (size_t align = 16; align <= 4096; align *= 2) {
    void* p = arena.Memalign(align, 100);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) % align);
    arena.Free(p);
  }
  EXPECT_EQ(0u, arena.blocks_in_use());
}

// POSIX layer over the boot-module (RAM) filesystem — §6.2.1's environment.
class PosixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = MemFs::Create();
    ComPtr<Dir> root;
    ASSERT_EQ(Error::kOk, fs_->GetRoot(root.Receive()));
    posix_.SetRoot(std::move(root));
  }

  ComPtr<MemFs> fs_;
  PosixIo posix_;
};

TEST_F(PosixTest, OpenReadWriteClose) {
  int fd = posix_.Open("/notes.txt", kOWrOnly | kOCreat);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(5, posix_.Write(fd, "hello", 5));
  EXPECT_EQ(0, posix_.Close(fd));

  fd = posix_.Open("/notes.txt", kORdOnly);
  ASSERT_GE(fd, 0);
  char buf[16] = {};
  EXPECT_EQ(5, posix_.Read(fd, buf, sizeof(buf)));
  EXPECT_STREQ("hello", buf);
  EXPECT_EQ(0, posix_.Read(fd, buf, sizeof(buf)));  // EOF
  EXPECT_EQ(0, posix_.Close(fd));
  EXPECT_EQ(0, posix_.OpenCount());
}

TEST_F(PosixTest, NestedPathsAndMkdir) {
  ASSERT_EQ(0, posix_.Mkdir("/a"));
  ASSERT_EQ(0, posix_.Mkdir("/a/b"));
  int fd = posix_.Open("/a/b/file", kOWrOnly | kOCreat);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(3, posix_.Write(fd, "xyz", 3));
  posix_.Close(fd);

  FileStat st;
  ASSERT_EQ(0, posix_.Stat("/a/b/file", &st));
  EXPECT_EQ(3u, st.size);
  EXPECT_EQ(FileType::kRegular, st.type);
  ASSERT_EQ(0, posix_.Stat("/a/b", &st));
  EXPECT_EQ(FileType::kDirectory, st.type);
}

TEST_F(PosixTest, LseekWhences) {
  int fd = posix_.Open("/f", kORdWr | kOCreat);
  ASSERT_GE(fd, 0);
  posix_.Write(fd, "0123456789", 10);
  EXPECT_EQ(2, posix_.Lseek(fd, 2, kSeekSet));
  char c;
  posix_.Read(fd, &c, 1);
  EXPECT_EQ('2', c);
  EXPECT_EQ(5, posix_.Lseek(fd, 2, kSeekCur));
  EXPECT_EQ(8, posix_.Lseek(fd, -2, kSeekEnd));
  EXPECT_LT(posix_.Lseek(fd, -100, kSeekCur), 0);
  posix_.Close(fd);
}

TEST_F(PosixTest, AppendMode) {
  int fd = posix_.Open("/log", kOWrOnly | kOCreat | kOAppend);
  ASSERT_GE(fd, 0);
  posix_.Write(fd, "aa", 2);
  posix_.Lseek(fd, 0, kSeekSet);
  posix_.Write(fd, "bb", 2);  // append mode ignores the seek
  posix_.Close(fd);
  FileStat st;
  ASSERT_EQ(0, posix_.Stat("/log", &st));
  EXPECT_EQ(4u, st.size);
}

TEST_F(PosixTest, ErrorsAreNegatedCodes) {
  EXPECT_EQ(-static_cast<int>(Error::kNoEnt), posix_.Open("/missing", kORdOnly));
  EXPECT_EQ(-static_cast<int>(Error::kBadF), posix_.Close(17));
  EXPECT_EQ(-static_cast<long>(Error::kBadF), posix_.Read(17, nullptr, 0));
  ASSERT_EQ(0, posix_.Mkdir("/d"));
  EXPECT_EQ(-static_cast<int>(Error::kExist), posix_.Mkdir("/d"));
  EXPECT_EQ(-static_cast<int>(Error::kProtoNoSupport),
            posix_.Socket(SockDomain::kInet, SockType::kStream));
}

TEST_F(PosixTest, UnlinkAndRmdir) {
  ASSERT_EQ(0, posix_.Mkdir("/dir"));
  int fd = posix_.Open("/dir/f", kOWrOnly | kOCreat);
  posix_.Close(fd);
  EXPECT_EQ(-static_cast<int>(Error::kNotEmpty), posix_.Rmdir("/dir"));
  EXPECT_EQ(0, posix_.Unlink("/dir/f"));
  EXPECT_EQ(0, posix_.Rmdir("/dir"));
  EXPECT_EQ(-static_cast<int>(Error::kNoEnt), posix_.Stat("/dir", nullptr));
}

TEST_F(PosixTest, FdsAreRecycled) {
  for (int round = 0; round < 3; ++round) {
    std::vector<int> fds;
    for (int i = 0; i < PosixIo::kMaxFds - 3; ++i) {
      int fd = posix_.Open("/spam", kOWrOnly | kOCreat);
      ASSERT_GE(fd, 0) << "i=" << i;
      fds.push_back(fd);
    }
    EXPECT_EQ(-static_cast<int>(Error::kMFile), posix_.Open("/spam", kORdOnly));
    for (int fd : fds) {
      posix_.Close(fd);
    }
  }
}

}  // namespace
}  // namespace oskit::libc
