// mbuf chain tests (§4.4.3, §4.7.3): allocation, chain operations, external
// storage sharing, and the BufIo glue's map-vs-copy behaviour.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/asan.h"
#include "src/base/random.h"
#include "src/com/memblkio.h"
#include "src/net/mbuf.h"
#include "src/net/mbuf_bufio.h"

namespace oskit::net {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return v;
}

size_t Mbufs(const MBuf* m) {
  size_t n = 0;
  for (; m != nullptr; m = m->next) {
    ++n;
  }
  return n;
}

std::vector<uint8_t> Flatten(MbufPool& pool, const MBuf* m) {
  std::vector<uint8_t> out(MbufPool::ChainLength(m));
  pool.CopyData(m, 0, out.size(), out.data());
  return out;
}

TEST(MbufTest, FromDataSplitsAcrossClusters) {
  MbufPool pool;
  auto data = Pattern(5000);
  MBuf* m = pool.FromData(data.data(), data.size());
  EXPECT_EQ(5000u, m->pkt_len);
  EXPECT_GE(Mbufs(m), 3u);  // needs multiple clusters
  EXPECT_EQ(data, Flatten(pool, m));
  pool.FreeChain(m);
  EXPECT_EQ(0u, pool.mbufs_out());
  EXPECT_EQ(0u, pool.clusters_out());
}

TEST(MbufTest, PrependUsesHeadroomThenAllocates) {
  MbufPool pool;
  MBuf* m = pool.GetHeaderAligned(20);
  size_t before = Mbufs(m);
  m = pool.Prepend(m, 14);  // fits in the aligned head's leading space
  EXPECT_EQ(before, Mbufs(m));
  EXPECT_EQ(34u, m->pkt_len);

  // A head with no room forces a new mbuf.
  MBuf* tight = pool.Get();
  tight->len = 10;
  tight->pkt_len = 10;
  MBuf* grown = pool.Prepend(tight, 14);
  EXPECT_EQ(2u, Mbufs(grown));
  pool.FreeChain(m);
  pool.FreeChain(grown);
}

TEST(MbufTest, PullupMakesHeaderContiguous) {
  MbufPool pool;
  // Build a chain whose first mbuf holds only 4 bytes.
  auto part1 = Pattern(4, 1);
  auto part2 = Pattern(60, 50);
  MBuf* head = pool.FromData(part1.data(), part1.size());
  MBuf* tail = pool.FromData(part2.data(), part2.size());
  head->next = tail;
  head->pkt_len = 64;

  MBuf* pulled = pool.Pullup(head, 20);
  ASSERT_NE(nullptr, pulled);
  EXPECT_GE(pulled->len, 20u);
  auto flat = Flatten(pool, pulled);
  EXPECT_EQ(0, memcmp(flat.data(), part1.data(), 4));
  EXPECT_EQ(0, memcmp(flat.data() + 4, part2.data(), 60));
  EXPECT_EQ(64u, flat.size());

  // Pullup beyond the packet frees the chain and fails.
  EXPECT_EQ(nullptr, pool.Pullup(pulled, 1000));
  EXPECT_EQ(0u, pool.mbufs_out());
}

TEST(MbufTest, TrimFrontAndTrimTo) {
  MbufPool pool;
  auto data = Pattern(1000);
  MBuf* m = pool.FromData(data.data(), data.size());
  m = pool.TrimFront(m, 300);
  EXPECT_EQ(700u, m->pkt_len);
  auto flat = Flatten(pool, m);
  EXPECT_EQ(0, memcmp(flat.data(), data.data() + 300, 700));
  pool.TrimTo(m, 100);
  EXPECT_EQ(100u, m->pkt_len);
  flat = Flatten(pool, m);
  EXPECT_EQ(0, memcmp(flat.data(), data.data() + 300, 100));
  pool.FreeChain(m);
  EXPECT_EQ(0u, pool.mbufs_out());
}

TEST(MbufTest, CopyChainSharesExternalStorage) {
  MbufPool pool;
  auto data = Pattern(4000);
  MBuf* m = pool.FromData(data.data(), data.size());
  uint64_t clusters_before = pool.clusters_out();
  MBuf* copy = pool.CopyChain(m, 100, 3000);
  // No new clusters: the copy references the same external storage (this is
  // why BSD transmit chains share the socket buffer's data, §5).
  EXPECT_EQ(clusters_before, pool.clusters_out());
  auto flat = Flatten(pool, copy);
  ASSERT_EQ(3000u, flat.size());
  EXPECT_EQ(0, memcmp(flat.data(), data.data() + 100, 3000));
  pool.FreeChain(m);
  // The shared clusters survive until the copy dies too.
  flat = Flatten(pool, copy);
  EXPECT_EQ(0, memcmp(flat.data(), data.data() + 100, 3000));
  pool.FreeChain(copy);
  EXPECT_EQ(0u, pool.clusters_out());
}

TEST(MbufTest, FreedStorageIsReusedAndNotCountedOut) {
  MbufPool pool;
  MBuf* m = pool.GetCluster();
  MBuf* first = m;
  uint8_t* cluster = m->data;
  m->internal[0] = 0x5a;
  pool.Free(m);
  EXPECT_EQ(0u, pool.mbufs_out());
  EXPECT_EQ(0u, pool.clusters_out());
  // LIFO free lists: the next cluster mbuf is the one just freed, and reads
  // as a fresh one.
  m = pool.GetCluster();
  EXPECT_EQ(first, m);
  EXPECT_EQ(cluster, m->data);
  EXPECT_EQ(0, m->internal[0]);
  EXPECT_EQ(0u, m->len);
  EXPECT_EQ(1u, pool.mbufs_out());
  EXPECT_EQ(1u, pool.clusters_out());
  EXPECT_EQ(2u, pool.total_allocs());
  pool.Free(m);
  // Past the high-water mark, freed buffers go back to the heap.
  std::vector<MBuf*> many;
  for (size_t i = 0; i < MbufPool::kCacheMax + 10; ++i) {
    many.push_back(pool.GetCluster());
  }
  for (MBuf* each : many) {
    pool.Free(each);
  }
  EXPECT_EQ(0u, pool.mbufs_out());
  EXPECT_EQ(0u, pool.clusters_out());
}

// The free lists are the thread's, not the pool's: storage one machine's
// pool frees is what another's hands out next, while each pool still counts
// only its own buffers.
TEST(MbufTest, PoolsOnOneThreadShareFreeListsNotCounts) {
  MbufPool a;
  MbufPool b;
  MBuf* m = a.GetCluster();
  MBuf* first = m;
  uint8_t* cluster = m->data;
  a.Free(m);
  m = b.GetCluster();
  EXPECT_EQ(first, m);
  EXPECT_EQ(cluster, m->data);
  EXPECT_EQ(0u, a.mbufs_out());
  EXPECT_EQ(0u, a.clusters_out());
  EXPECT_EQ(1u, b.mbufs_out());
  EXPECT_EQ(1u, b.clusters_out());
  // A cluster shared into another pool's chain is still counted, and given
  // back, by the pool that handed it out.
  m->len = m->pkt_len = 100;
  MBuf* copy = a.CopyChain(m, 0, MbufPool::kCopyAll);
  ASSERT_EQ(m->ext, copy->ext);
  b.Free(m);
  EXPECT_EQ(1u, a.mbufs_out());
  EXPECT_EQ(0u, a.clusters_out());
  EXPECT_EQ(0u, b.mbufs_out());
  EXPECT_EQ(1u, b.clusters_out());
  a.Free(copy);
  EXPECT_EQ(0u, a.mbufs_out());
  EXPECT_EQ(0u, b.clusters_out());
}

// A touch through a stale pointer lands on poisoned cache storage: still an
// AddressSanitizer report although the bytes never went back to malloc.
TEST(MbufDeathTest, TouchAfterFreeIsAnAsanReport) {
#if defined(OSKIT_ASAN)
  EXPECT_DEATH(
      {
        MbufPool pool;
        MBuf* m = pool.Get();
        pool.Free(m);
        *static_cast<volatile uint32_t*>(&m->len) = 1;
      },
      "use-after-poison");
  EXPECT_DEATH(
      {
        MbufPool pool;
        MBuf* m = pool.GetCluster();
        volatile uint8_t* cluster = m->data;
        pool.Free(m);
        cluster[kClusterSize - 1] = 1;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

TEST(MbufBufIoTest, MapRequiresPhysicallyContiguousStorage) {
  MbufPool pool;
  auto data = Pattern(3000);
  MBuf* chain = pool.FromData(data.data(), data.size());
  ASSERT_GE(Mbufs(chain), 2u);
  size_t first_len = chain->len;
  auto io = MbufBufIo::Wrap(&pool, chain);

  void* addr = nullptr;
  // Within the first mbuf: map succeeds.
  ASSERT_EQ(Error::kOk, io->Map(&addr, 0, first_len));
  EXPECT_EQ(0, memcmp(addr, data.data(), first_len));
  ASSERT_EQ(Error::kOk, io->Unmap(addr, 0, first_len));
  // Spanning into a separately allocated cluster: the windows are not
  // adjacent in memory, so map fails and Read still works (§4.7.3).
  EXPECT_EQ(Error::kNotImpl, io->Map(&addr, 0, first_len + 10));
  std::vector<uint8_t> buf(first_len + 10);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk, io->Read(buf.data(), 0, buf.size(), &actual));
  EXPECT_EQ(buf.size(), actual);
  EXPECT_EQ(0, memcmp(buf.data(), data.data(), buf.size()));
}

TEST(MbufBufIoTest, MapSpansAdjacentSplitWindows) {
  MbufPool pool;
  // Regression for the documented multi-mbuf Map limitation: two CopyChain
  // pieces of one cluster, linked into one packet, are two mbufs whose
  // windows abut inside the shared cluster, and a range crossing that
  // boundary IS contiguous local memory.
  auto data = Pattern(1000);
  MBuf* whole = pool.FromData(data.data(), data.size());
  ASSERT_EQ(1u, Mbufs(whole));
  ASSERT_NE(nullptr, whole->ext);
  MBuf* head = pool.CopyChain(whole, 0, 400);
  MBuf* tail = pool.CopyChain(whole, 400, 600);
  pool.FreeChain(whole);
  ASSERT_EQ(tail->data, head->data + head->len);  // abutting windows
  head->next = tail;  // link into one packet
  head->pkt_len = static_cast<uint32_t>(data.size());
  tail->pkt_len = 0;
  auto io = MbufBufIo::Wrap(&pool, head);

  void* addr = nullptr;
  ASSERT_EQ(Error::kOk, io->Map(&addr, 300, 500));  // crosses the boundary
  EXPECT_EQ(0, memcmp(addr, data.data() + 300, 500));
  ASSERT_EQ(Error::kOk, io->Unmap(addr, 300, 500));
}

TEST(MbufBufIoTest, WriteSpansChainSegments) {
  MbufPool pool;
  // Regression: Write used to be kNotImpl outright; it now lands anywhere
  // in the chain, including ranges spanning segment boundaries.
  auto data = Pattern(3000);
  MBuf* chain = pool.FromData(data.data(), data.size());
  ASSERT_GE(Mbufs(chain), 2u);
  size_t first_len = chain->len;
  auto io = MbufBufIo::Wrap(&pool, chain);

  std::vector<uint8_t> patch(100, 0xEE);
  size_t actual = 0;
  ASSERT_EQ(Error::kOk,
            io->Write(patch.data(), first_len - 50, patch.size(), &actual));
  EXPECT_EQ(patch.size(), actual);

  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(Error::kOk, io->Read(back.data(), 0, back.size(), &actual));
  auto expect = data;
  memcpy(expect.data() + first_len - 50, patch.data(), patch.size());
  EXPECT_EQ(expect, back);
}

TEST(MbufBufIoTest, WriteRefusesSharedStorage) {
  MbufPool pool;
  auto data = Pattern(3000);
  MBuf* chain = pool.FromData(data.data(), data.size());
  MBuf* alias = pool.CopyChain(chain, 0, data.size());  // shares the clusters
  auto io = MbufBufIo::Wrap(&pool, chain);

  // The chain invariant forbids scribbling on aliased storage: refused
  // whole, nothing written.
  uint8_t b = 0xAB;
  size_t actual = 99;
  EXPECT_EQ(Error::kBusy, io->Write(&b, 10, 1, &actual));
  EXPECT_EQ(0u, actual);
  pool.FreeChain(alias);
  ASSERT_EQ(Error::kOk, io->Write(&b, 10, 1, &actual));  // sole owner again
  EXPECT_EQ(1u, actual);
}

TEST(MbufBufIoTest, ImportMapsContiguousForeignBuffers) {
  MbufPool pool;
  // A contiguous foreign packet (like an skbuff): zero-copy import.
  auto data = Pattern(1200);
  auto foreign = MemBlkIo::CreateFrom(data.data(), data.size());
  MBuf* imported = MbufFromBufIo(&pool, foreign.get(), data.size());
  ASSERT_NE(nullptr, imported);
  EXPECT_EQ(1u, Mbufs(imported));
  EXPECT_EQ(0u, pool.clusters_out());  // external reference, not a copy
  EXPECT_EQ(2u, foreign->ref_count()); // the chain holds the foreign object
  auto flat = Flatten(pool, imported);
  EXPECT_EQ(data, flat);
  pool.FreeChain(imported);
  EXPECT_EQ(1u, foreign->ref_count());
}

TEST(MbufBufIoTest, ImportCopiesDiscontiguousForeignBuffers) {
  MbufPool pool;
  // A foreign packet that is itself an mbuf chain cannot be mapped whole,
  // so the import copies (the reverse of the Table 1 transmit copy).
  auto data = Pattern(3000);
  MBuf* chain = pool.FromData(data.data(), data.size());
  auto io = MbufBufIo::Wrap(&pool, chain);
  MBuf* imported = MbufFromBufIo(&pool, io.get(), 3000);
  ASSERT_NE(nullptr, imported);
  auto flat = Flatten(pool, imported);
  EXPECT_EQ(data, flat);
  pool.FreeChain(imported);
}

// Property test: random chain-operation sequences preserve content
// equivalence with a flat shadow vector.
class MbufPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MbufPropertyTest, ChainOpsMatchShadow) {
  MbufPool pool;
  Rng rng(GetParam());
  auto initial = Pattern(rng.Range(200, 2000));
  std::vector<uint8_t> shadow = initial;
  MBuf* m = pool.FromData(initial.data(), initial.size());
  // Links a fresh chain holding `bytes` after the packet's last mbuf.
  auto append = [&](const std::vector<uint8_t>& bytes) {
    MBuf* last = m;
    while (last->next != nullptr) {
      last = last->next;
    }
    last->next = pool.FromData(bytes.data(), bytes.size());
    last->next->pkt_len = 0;
    m->pkt_len += static_cast<uint32_t>(bytes.size());
    shadow.insert(shadow.end(), bytes.begin(), bytes.end());
  };

  for (int step = 0; step < 100; ++step) {
    switch (rng.Below(4)) {
      case 0: {  // append
        append(Pattern(rng.Range(1, 500), static_cast<uint8_t>(rng.Next())));
        break;
      }
      case 1: {  // trim front
        if (shadow.size() < 2) {
          break;
        }
        size_t n = rng.Range(1, shadow.size() / 2);
        m = pool.TrimFront(m, n);
        shadow.erase(shadow.begin(), shadow.begin() + n);
        break;
      }
      case 2: {  // trim to
        size_t n = rng.Below(shadow.size() + 1);
        pool.TrimTo(m, n);
        shadow.resize(n);
        if (shadow.empty()) {
          // Re-seed so the test keeps going.
          append(Pattern(64, static_cast<uint8_t>(step)));
        }
        break;
      }
      case 3: {  // pullup a prefix
        size_t n = rng.Range(1, shadow.size() < MBuf::kDataSpace
                                    ? shadow.size()
                                    : MBuf::kDataSpace);
        MBuf* pulled = pool.Pullup(m, n);
        ASSERT_NE(nullptr, pulled);
        m = pulled;
        break;
      }
    }
    ASSERT_EQ(shadow.size(), MbufPool::ChainLength(m));
    ASSERT_EQ(shadow, Flatten(pool, m)) << "divergence at step " << step;
  }
  pool.FreeChain(m);
  EXPECT_EQ(0u, pool.mbufs_out());
  EXPECT_EQ(0u, pool.clusters_out());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbufPropertyTest, ::testing::Values(3, 17, 99, 123));

}  // namespace
}  // namespace oskit::net
