// Foundation-library tests: the Internet checksum (including the
// odd-boundary chaining the mbuf walkers rely on), the integrity digest,
// byte-order helpers, the
// intrusive list, the deterministic RNG, the written-page set, parked
// zero-on-demand stores, error names, and panic plumbing.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/byteorder.h"
#include "src/base/checksum.h"
#include "src/base/digest.h"
#include "src/base/error.h"
#include "src/base/intrusive_list.h"
#include "src/base/panic.h"
#include "src/base/random.h"
#include "src/base/sparse_image.h"
#include "src/base/zero_pages.h"

namespace oskit {
namespace {

TEST(ChecksumTest, KnownVector) {
  // RFC 1071's classic example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
  // checksum ~0xddf2 = 0x220d.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(0x220d, InetChecksumOf(data, sizeof(data)));
}

TEST(ChecksumTest, ValidPacketSumsToZero) {
  // A buffer with its own checksum stored verifies to 0 — the property the
  // IP/TCP/UDP input paths rely on.
  uint8_t packet[20];
  for (size_t i = 0; i < sizeof(packet); ++i) {
    packet[i] = static_cast<uint8_t>(i * 41);
  }
  packet[10] = 0;
  packet[11] = 0;
  uint16_t sum = InetChecksumOf(packet, sizeof(packet));
  StoreBe16(packet + 10, sum);
  EXPECT_EQ(0, InetChecksumOf(packet, sizeof(packet)));
}

// Property: summing a buffer in arbitrary (odd-length!) pieces equals
// summing it flat — exactly what checksumming an mbuf chain does.
class ChecksumSplitTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChecksumSplitTest, ArbitrarySplitsEqualFlat) {
  Rng rng(GetParam());
  std::vector<uint8_t> data(rng.Range(100, 5000));
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  uint16_t flat = InetChecksumOf(data.data(), data.size());

  for (int trial = 0; trial < 50; ++trial) {
    InetChecksum chained;
    size_t offset = 0;
    while (offset < data.size()) {
      size_t n = rng.Range(1, 97);  // frequently odd
      if (n > data.size() - offset) {
        n = data.size() - offset;
      }
      chained.Add(data.data() + offset, n);
      offset += n;
    }
    ASSERT_EQ(flat, chained.Finish()) << "seed trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumSplitTest, ::testing::Values(1, 9, 77));

// The checksum as RFC 1071 states it, one big-endian byte pair at a time
// with the end-around carry folded at every step: the reference a faster
// InetChecksum must keep matching.
uint16_t ReferenceChecksum(const uint8_t* p, size_t n) {
  uint32_t sum = 0;
  for (size_t i = 0; i < n; i += 2) {
    uint32_t low = i + 1 < n ? p[i + 1] : 0;
    sum += (static_cast<uint32_t>(p[i]) << 8) | low;
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

// Property: over lengths 0-9,000, start offsets 0-7, random, all-0x00 and
// all-0xff bytes, and random Add split points (empty pieces included),
// InetChecksum equals the byte-pair reference.  PROPERTY_SEED=<n> narrows
// the sweep to one reproducing seed.
class ChecksumPropTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChecksumPropTest, MatchesBytePairReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  std::vector<uint8_t> storage(9000 + 8);
  for (int case_i = 0; case_i < 2000; ++case_i) {
    // The first cases walk every short length at every offset; the rest
    // draw both.
    size_t len = case_i < 8 * 65 ? static_cast<size_t>(case_i / 8) : rng.Below(9001);
    size_t offset = case_i < 8 * 65 ? static_cast<size_t>(case_i % 8) : rng.Below(8);
    uint8_t* data = storage.data() + offset;
    int fill = static_cast<int>(rng.Below(4));  // 0 zeros, 1 ones, else random
    for (size_t i = 0; i < len; ++i) {
      data[i] = fill == 0 ? 0x00 : fill == 1 ? 0xff : static_cast<uint8_t>(rng.Next());
    }
    const uint16_t want = ReferenceChecksum(data, len);
    ASSERT_EQ(want, InetChecksumOf(data, len))
        << "case " << case_i << " len " << len << " offset " << offset
        << " (rerun: PROPERTY_SEED=" << seed << ")";
    InetChecksum chained;
    const uint64_t pieces = rng.Range(1, 6);
    size_t at = 0;
    for (uint64_t piece = 1; piece <= pieces; ++piece) {
      size_t n = piece == pieces ? len - at : rng.Below(len - at + 1);
      chained.Add(data + at, n);
      at += n;
    }
    ASSERT_EQ(want, chained.Finish())
        << "case " << case_i << " len " << len << " offset " << offset
        << " split (rerun: PROPERTY_SEED=" << seed << ")";
  }
}

std::vector<uint64_t> PropertySeeds() {
  if (const char* env = std::getenv("PROPERTY_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  return {0xc5c50001, 0xc5c50002, 0xc5c50003, 0xc5c50004, 0xc5c50005};
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumPropTest,
                         ::testing::ValuesIn(PropertySeeds()));

// However long the word sum defers its carries, none is lost: 1 MiB of 0xff
// bytes puts every 32-bit half at its largest.  Summed at an even and an odd
// address, as one Add and as more than 65,536 Adds of 1-3 bytes.
TEST(ChecksumTest, NoCarryLostOverAMebibyteOfOnes) {
  const size_t len = (size_t{1} << 20) + 3;
  std::vector<uint8_t> storage(len + 1, 0xff);
  Rng rng(7);
  for (size_t offset : {0, 1}) {
    SCOPED_TRACE(::testing::Message() << "offset " << offset);
    const uint8_t* data = storage.data() + offset;
    const uint16_t want = ReferenceChecksum(data, len);
    EXPECT_EQ(want, InetChecksumOf(data, len));
    InetChecksum pieces;
    size_t adds = 0;
    for (size_t at = 0; at < len; ++adds) {
      size_t n = std::min<size_t>(rng.Range(1, 3), len - at);
      pieces.Add(data + at, n);
      at += n;
    }
    EXPECT_GT(adds, 65536u);
    EXPECT_EQ(want, pieces.Finish());
  }
}

std::vector<uint8_t> Pattern(size_t n, uint8_t salt) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(i * 31 + salt);
  }
  return v;
}

// The journal writes these digests to disk: a change to any of them is a
// change of the journal format and must bump kJournalVersion.
TEST(DigestTest, KnownVectorsPinTheJournalFormat) {
  EXPECT_EQ(0x1a4bbdaa97f5344cull, IntegrityDigestOf(nullptr, 0));
  EXPECT_EQ(0xe76119b1e01d3f70ull, IntegrityDigestOf("abc", 3));
  EXPECT_EQ(0xcbe5bc5edf6cb6eaull, IntegrityDigestOf(Pattern(4096, 1).data(), 4096));
}

// Any single bit flip changes the digest, at the checksum layer's granule
// (512) and the journal's block (4096).
TEST(DigestTest, EverySingleBitFlipChangesTheDigest) {
  for (size_t size : {512u, 4096u}) {
    SCOPED_TRACE(::testing::Message() << "size " << size);
    auto block = Pattern(size, 5);
    const uint64_t want = IntegrityDigestOf(block.data(), size);
    for (size_t bit = 0; bit < size * 8; ++bit) {
      block[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_NE(want, IntegrityDigestOf(block.data(), size)) << "bit " << bit;
      block[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(want, IntegrityDigestOf(block.data(), size));
  }
}

// Swapping two distinct words changes the digest, for word pairs feeding
// the same lane (3, 7) and different lanes (2, 9).
TEST(DigestTest, SwappedWordsChangeTheDigest) {
  for (size_t size : {512u, 4096u}) {
    auto block = Pattern(size, 17);
    const uint64_t want = IntegrityDigestOf(block.data(), size);
    for (auto [a, b] : {std::pair<size_t, size_t>{3, 7}, {2, 9}}) {
      auto swapped = block;
      std::swap_ranges(swapped.begin() + 8 * a, swapped.begin() + 8 * a + 8,
                       swapped.begin() + 8 * b);
      ASSERT_NE(block, swapped);
      EXPECT_NE(want, IntegrityDigestOf(swapped.data(), size))
          << "size " << size << " words " << a << " and " << b;
    }
  }
}

// Property: the streaming digest over random splits (empty pieces, pieces
// inside one stripe and pieces spanning many) equals the one-shot digest,
// for lengths on and off the word and stripe boundaries.
class DigestSplitTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DigestSplitTest, StreamingEqualsOneShot) {
  Rng rng(GetParam());
  std::vector<uint8_t> storage(9000);
  for (auto& b : storage) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (int trial = 0; trial < 500; ++trial) {
    size_t len = trial < 100 ? static_cast<size_t>(trial) : rng.Below(storage.size() + 1);
    const uint8_t* data = storage.data() + rng.Below(storage.size() - len + 1);
    const uint64_t want = IntegrityDigestOf(data, len);
    IntegrityDigest streamed;
    size_t at = 0;
    while (at < len) {
      size_t n = rng.Below(4) == 0 ? rng.Below(len - at + 1) : rng.Below(41);
      n = std::min(n, len - at);
      streamed.Add(data + at, n);
      at += n;
    }
    ASSERT_EQ(want, streamed.Finish()) << "trial " << trial << " len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigestSplitTest, ::testing::Values(1, 9, 77));

TEST(ByteOrderTest, SwapsAndUnalignedAccess) {
  EXPECT_EQ(0x3412, ByteSwap16(0x1234));
  EXPECT_EQ(0x78563412u, ByteSwap32(0x12345678));

  uint8_t buf[9] = {};
  StoreBe16(buf + 1, 0xabcd);  // deliberately misaligned
  EXPECT_EQ(0xab, buf[1]);
  EXPECT_EQ(0xcd, buf[2]);
  EXPECT_EQ(0xabcd, LoadBe16(buf + 1));
  StoreBe32(buf + 3, 0x01020304);
  EXPECT_EQ(0x01020304u, LoadBe32(buf + 3));
  StoreLe32(buf + 3, 0x01020304);
  EXPECT_EQ(0x04, buf[3]);
  EXPECT_EQ(0x01020304u, LoadLe32(buf + 3));
  StoreLe64(buf + 1, 0x1122334455667788ull);
  EXPECT_EQ(0x1122334455667788ull, LoadLe64(buf + 1));
}

TEST(ByteOrderTest, NetworkOrderRoundTrips) {
  EXPECT_EQ(0x1234, NetToHost16(HostToNet16(0x1234)));
  EXPECT_EQ(0xdeadbeefu, NetToHost32(HostToNet32(0xdeadbeef)));
  // On this (little-endian, asserted in src/fs) platform hton swaps.
  uint16_t wire = HostToNet16(0x0102);
  EXPECT_EQ(0x01, reinterpret_cast<uint8_t*>(&wire)[0]);
}

struct Item {
  int value;
  ListNode node;
  explicit Item(int v) : value(v) {}
};

TEST(IntrusiveListTest, PushPopOrdering) {
  IntrusiveList<Item, &Item::node> list;
  Item a(1);
  Item b(2);
  Item c(3);
  EXPECT_TRUE(list.Empty());
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushFront(&c);
  EXPECT_EQ(3u, list.Size());
  EXPECT_EQ(3, list.Front()->value);
  EXPECT_EQ(2, list.Back()->value);
  EXPECT_EQ(3, list.PopFront()->value);
  EXPECT_EQ(2, list.PopBack()->value);
  EXPECT_EQ(1, list.PopFront()->value);
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(nullptr, list.PopFront());
}

TEST(IntrusiveListTest, RemoveFromMiddleAndIteration) {
  IntrusiveList<Item, &Item::node> list;
  Item items[] = {Item(0), Item(1), Item(2), Item(3), Item(4)};
  for (Item& item : items) {
    list.PushBack(&item);
  }
  list.Remove(&items[2]);
  EXPECT_FALSE(items[2].node.InList());
  std::string order;
  for (Item& item : list) {
    order += static_cast<char>('0' + item.value);
  }
  EXPECT_EQ("0134", order);
  // Drain so the destructor's non-empty assertion stays quiet.
  while (list.PopFront() != nullptr) {
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
  Rng c(43);
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) {
    differs |= a2.Next() != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, RangesRespectBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 20u);
    double u = rng.Unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  // Percent(0) never, Percent(100) always.
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(rng.Percent(0));
    ASSERT_TRUE(rng.Percent(100));
  }
}

TEST(PageSetTest, RunsAreMaximalAscendingAndClipped) {
  constexpr size_t kPage = PageSet::kPageSize;
  PageSet set(200 * kPage);
  std::vector<std::pair<size_t, size_t>> runs;
  auto collect = [&](size_t limit) {
    runs.clear();
    set.ForEachRun(limit, [&](size_t at, size_t len) { runs.emplace_back(at, len); });
  };
  collect(200 * kPage);
  EXPECT_TRUE(runs.empty());
  set.Mark(62 * kPage + 10, kPage);  // pages 62-63: up to a word boundary
  set.Mark(64 * kPage, 1);           // page 64 starts the next word
  set.Mark(130 * kPage, 0);          // empty: marks nothing
  set.Mark(199 * kPage + 5, 1);
  EXPECT_TRUE(set.Contains(63));
  EXPECT_FALSE(set.Contains(130));
  collect(200 * kPage);
  EXPECT_EQ((std::vector<std::pair<size_t, size_t>>{{62 * kPage, 3 * kPage},
                                                     {199 * kPage, kPage}}),
            runs);
  // A limit inside a run clips it; runs past the limit are left out.
  collect(63 * kPage + 100);
  EXPECT_EQ((std::vector<std::pair<size_t, size_t>>{{62 * kPage, kPage + 100}}), runs);
}

TEST(PageSetTest, ResizeForgetsPagesCutOffAndGrowsUnmarked) {
  constexpr size_t kPage = PageSet::kPageSize;
  PageSet set(70 * kPage);
  set.Mark(0, 70 * kPage);
  set.Resize(65 * kPage + 1);  // keeps pages 0-65, across a word boundary
  EXPECT_TRUE(set.Contains(65));
  EXPECT_FALSE(set.Contains(66));
  set.Resize(200 * kPage);
  set.Mark(199 * kPage, 1);
  std::vector<std::pair<size_t, size_t>> runs;
  set.ForEachRun(200 * kPage, [&](size_t at, size_t len) { runs.emplace_back(at, len); });
  EXPECT_EQ((std::vector<std::pair<size_t, size_t>>{{0, 66 * kPage}, {199 * kPage, kPage}}),
            runs);
}

// Runs `fn` on a thread of its own, which starts with no parked mappings.
template <typename Fn>
void OnFreshThread(Fn fn) {
  std::thread(fn).join();
}

bool AllZero(const uint8_t* bytes, size_t len) {
  return std::all_of(bytes, bytes + len, [](uint8_t b) { return b == 0; });
}

TEST(ZeroPagesTest, ReleasedStoreIsRetakenWithItsPagesZeroed) {
  OnFreshThread([] {
    constexpr size_t kSize = 40 * 4096 + 100;
    const uint8_t* first = nullptr;
    {
      ZeroPages store(kSize);
      first = store.data();
      std::memset(store.MarkWritten(4096 - 3, 10), 0xab, 10);  // straddles pages 0-1
      std::memset(store.MarkWritten(kSize - 5, 5), 0xcd, 5);
      store.MarkWritten(kSize, 0);  // empty, at the end: marks nothing
    }
    EXPECT_EQ(1u, ZeroPages::parked());
    ZeroPages other(2 * kSize);  // another page span: a mapping of its own
    EXPECT_NE(first, other.data());
    EXPECT_EQ(1u, ZeroPages::parked());
    ZeroPages again(kSize - 50);  // the same page span
    EXPECT_EQ(0u, ZeroPages::parked());
    EXPECT_EQ(first, again.data());
    EXPECT_TRUE(AllZero(again.data(), again.size()));
    size_t runs = 0;
    again.image().written().ForEachRun(again.size(), [&](size_t, size_t) { ++runs; });
    EXPECT_EQ(0u, runs);
    // Resizing to 0 releases the mapping as destruction does.
    ASSERT_TRUE(again.Resize(0));
    EXPECT_EQ(nullptr, again.data());
    ASSERT_TRUE(again.Resize(kSize));
    EXPECT_EQ(first, again.data());
  });
}

// A parked mapping keeps resident only the pages its last owner wrote:
// those an earlier owner wrote and the last one did not go back to the host.
TEST(ZeroPagesTest, ParkedMappingHoldsOnlyItsLastOwnersPages) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  if (page != PageSet::kPageSize) {
    GTEST_SKIP() << "the written set counts 4 KB pages; this host's are " << page;
  }
  OnFreshThread([page] {
    constexpr size_t kPages = 8;
    auto owner = [&](size_t first, size_t last) {  // writes pages [first, last)
      ZeroPages store(kPages * page);
      std::memset(store.MarkWritten(first * page, (last - first) * page), 0x11,
                  (last - first) * page);
      return store.data();
    };
    const uint8_t* first = owner(0, 4);
    ASSERT_EQ(first, owner(2, 6));
    ZeroPages third(kPages * page);
    ASSERT_EQ(first, third.data());
    unsigned char resident[kPages] = {};
    ASSERT_EQ(0, mincore(const_cast<uint8_t*>(third.data()), kPages * page, resident));
    for (size_t p = 0; p < kPages; ++p) {
      EXPECT_EQ(p >= 2 && p < 6, (resident[p] & 1) != 0) << "page " << p;
    }
    EXPECT_TRUE(AllZero(third.data(), third.size()));
  });
}

TEST(ZeroPagesTest, EscapedStoreIsUnmappedNotParked) {
  OnFreshThread([] {
    {
      ZeroPages store(8 * 4096);
      store.untracked_data()[5] = 1;  // a store the written set never sees
    }
    EXPECT_EQ(0u, ZeroPages::parked());
    ZeroPages fresh(8 * 4096);
    EXPECT_TRUE(AllZero(fresh.data(), fresh.size()));
  });
}

TEST(ZeroPagesTest, ParkedCacheHoldsAtMostItsConstant) {
  OnFreshThread([] {
    std::vector<std::unique_ptr<ZeroPages>> stores;
    std::vector<const uint8_t*> mappings;
    for (size_t i = 0; i < ZeroPages::kParkedMax + 3; ++i) {
      stores.push_back(std::make_unique<ZeroPages>(4096));
      mappings.push_back(stores.back()->data());
    }
    for (size_t i = 0; i < stores.size(); ++i) {
      stores[i].reset();
      EXPECT_EQ(std::min(i + 1, ZeroPages::kParkedMax), ZeroPages::parked());
    }
    // The oldest were unmapped to make room; the newest comes back first.
    ZeroPages taken(4096);
    EXPECT_EQ(mappings.back(), taken.data());
    EXPECT_EQ(ZeroPages::kParkedMax - 1, ZeroPages::parked());
  });
}

TEST(ZeroPagesDeathTest, ReadThroughAParkedStoreIsAnAsanReport) {
#if defined(OSKIT_ASAN)
  EXPECT_DEATH(OnFreshThread([] {
                 const uint8_t* stale = nullptr;
                 {
                   ZeroPages store(2 * 4096);
                   std::memset(store.MarkWritten(0, 8), 1, 8);
                   stale = store.data();
                 }
                 EXPECT_EQ(1u, ZeroPages::parked());
                 (void)*static_cast<const volatile uint8_t*>(stale + 4096);
               }),
               "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

TEST(ErrorTest, NamesAreStable) {
  EXPECT_STREQ("OK", ErrorName(Error::kOk));
  EXPECT_STREQ("ENOENT", ErrorName(Error::kNoEnt));
  EXPECT_STREQ("ECONNREFUSED", ErrorName(Error::kConnRefused));
  EXPECT_STREQ("E_NOINTERFACE", ErrorName(Error::kNoInterface));
  EXPECT_TRUE(Ok(Error::kOk));
  EXPECT_FALSE(Ok(Error::kIo));
}

TEST(PanicTest, HandlerReceivesFormattedMessage) {
  static std::string captured;
  captured.clear();
  PanicHandler old = SetPanicHandler(+[](const char* message) {
    captured = message;
    throw 1;  // tests substitute unwinding for halting
  });
  EXPECT_THROW(Panic("code %d in %s", 7, "unit"), int);
  SetPanicHandler(old);
  EXPECT_EQ("code 7 in unit", captured);
}

TEST(PanicTest, AssertMacroFiresOnFalse) {
  PanicHandler old = SetPanicHandler(+[](const char*) { throw 2; });
  EXPECT_THROW([] { OSKIT_ASSERT(1 == 2); }(), int);
  OSKIT_ASSERT(true);  // and not on true
  SetPanicHandler(old);
}

}  // namespace
}  // namespace oskit
