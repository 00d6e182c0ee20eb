// Property-test harness for mbuf chain operations (§4.4.3, §4.7.3).
//
// Thousands of random chain-op sequences (pullup, trim, copy, prepend) are
// applied to an mbuf chain and, in lockstep, to a flat std::vector<uint8_t>
// reference.  The test grows its chains by linking FromData and CopyChain
// pieces, so they hold several mbufs, internal mbufs and clusters shared
// within one chain.  After every operation the chain must agree with the
// reference byte for byte, its pkt_len must match the recomputed chain
// length, and every external storage descriptor must hold a positive
// refcount.  Source buffers come from a memdebug arena so fence overruns by
// the chain ops are caught, and the pool's live counters must return to
// zero after every case.
//
// Seeds: the suite runs over five fixed seeds (10k cases total).  Setting
// PROPERTY_SEED=<n> in the environment narrows the run to that single seed,
// so a CI failure line ("rerun: PROPERTY_SEED=...") reproduces directly.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/random.h"
#include "src/libc/malloc.h"
#include "src/memdebug/memdebug.h"
#include "src/net/mbuf.h"

namespace {

using oskit::MemDebug;
using oskit::Rng;
using oskit::net::MBuf;
using oskit::net::MbufPool;

// How many checked chains had each shape the ops must be exercised on.
struct Shapes {
  size_t several = 0;   // three or more mbufs
  size_t internal = 0;  // an mbuf holding its bytes internally
  size_t shared = 0;    // a cluster or external buffer with refs > 1
};

// Verifies the chain against the flat reference and the structural
// invariants every public chain op must preserve.
void CheckChain(MbufPool& pool, const MBuf* m,
                const std::vector<uint8_t>& shadow, Shapes* shapes) {
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(shadow.size(), static_cast<size_t>(m->pkt_len));
  ASSERT_EQ(shadow.size(), MbufPool::ChainLength(m));
  size_t count = 0;
  bool internal = false;
  bool shared = false;
  for (const MBuf* c = m; c != nullptr; c = c->next) {
    if (c->ext != nullptr) {
      ASSERT_GE(c->ext->refs, 1u);
      shared |= c->ext->refs > 1;
    } else {
      internal = true;
    }
    ASSERT_LE(c->leading_space() + c->len, c->buf_size());
    ++count;
  }
  shapes->several += count >= 3;
  shapes->internal += internal;
  shapes->shared += shared;
  if (!shadow.empty()) {
    std::vector<uint8_t> flat(shadow.size());
    pool.CopyData(m, 0, flat.size(), flat.data());
    ASSERT_EQ(shadow, flat);
  }
}

// A random payload in the memdebug arena (fence-checked), at least 1 byte
// of storage so zero-length payloads still get a distinct allocation.
uint8_t* RandomPayload(MemDebug& md, Rng& rng, size_t len, const char* tag) {
  auto* buf = static_cast<uint8_t*>(md.Alloc(len > 0 ? len : 1, tag));
  for (size_t i = 0; i < len; ++i) {
    buf[i] = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

// Links packet `tail` after the last mbuf of packet `m`; pkt_len lives on
// the head only.
void Link(MBuf* m, MBuf* tail) {
  MBuf* last = m;
  while (last->next != nullptr) {
    last = last->next;
  }
  last->next = tail;
  m->pkt_len += tail->pkt_len;
  tail->pkt_len = 0;
}

class MbufPropTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MbufPropTest, RandomChainOpsMatchFlatReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  MemDebug md(oskit::libc::HostMemEnv());
  MbufPool pool;
  Shapes shapes;
  constexpr size_t kCases = 2000;

  for (size_t case_i = 0; case_i < kCases; ++case_i) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << case_i << " (rerun: PROPERTY_SEED=" << seed
                 << " ./mbuf_prop_test)");

    // One to three FromData pieces: internal mbufs below MBuf::kDataSpace
    // bytes, clusters above.
    std::vector<uint8_t> shadow;
    MBuf* m = nullptr;
    for (size_t piece = rng.Range(1, 3); piece > 0; --piece) {
      size_t len = rng.Below(rng.Percent(50) ? MBuf::kDataSpace : 5000);
      uint8_t* src = RandomPayload(md, rng, len, "prop.init");
      shadow.insert(shadow.end(), src, src + len);
      MBuf* next = pool.FromData(src, len);
      md.Free(src);
      if (m == nullptr) {
        m = next;
      } else {
        Link(m, next);
      }
    }
    CheckChain(pool, m, shadow, &shapes);

    const size_t op_count = rng.Range(3, 8);
    for (size_t op_i = 0; op_i < op_count && !::testing::Test::HasFailure();
         ++op_i) {
      switch (rng.Below(7)) {
        case 0: {  // Link a fresh copy of raw bytes at the end.
          size_t n = rng.Below(3000);
          uint8_t* buf = RandomPayload(md, rng, n, "prop.link");
          shadow.insert(shadow.end(), buf, buf + n);
          Link(m, pool.FromData(buf, n));
          md.Free(buf);
          break;
        }
        case 1: {  // Link a CopyChain of the packet's own bytes at the end:
                   // its clusters are now shared within the one chain.
          size_t off = rng.Below(shadow.size() + 1);
          size_t n = rng.Below(shadow.size() - off + 1);
          std::vector<uint8_t> ref(shadow.begin() + static_cast<ptrdiff_t>(off),
                                   shadow.begin() +
                                       static_cast<ptrdiff_t>(off + n));
          Link(m, pool.CopyChain(m, off, n));
          shadow.insert(shadow.end(), ref.begin(), ref.end());
          break;
        }
        case 2: {  // Pullup: leading bytes become contiguous.
          if (shadow.empty()) {
            break;
          }
          size_t cap = std::min(shadow.size(), MBuf::kDataSpace);
          size_t n = rng.Range(1, cap);
          m = pool.Pullup(m, n);
          ASSERT_NE(nullptr, m);
          EXPECT_GE(m->len, n);
          break;
        }
        case 3: {  // TrimFront (m_adj positive).
          size_t n = rng.Below(shadow.size() + 1);
          m = pool.TrimFront(m, n);
          shadow.erase(shadow.begin(),
                       shadow.begin() + static_cast<ptrdiff_t>(n));
          break;
        }
        case 4: {  // TrimTo (m_adj negative).
          size_t n = rng.Below(shadow.size() + 1);
          pool.TrimTo(m, n);
          shadow.resize(n);
          break;
        }
        case 5: {  // CopyChain sub-range: verify the copy, sometimes swap.
          size_t off = rng.Below(shadow.size() + 1);
          size_t n = rng.Below(shadow.size() - off + 1);
          MBuf* copy = pool.CopyChain(m, off, n);
          std::vector<uint8_t> ref(shadow.begin() + static_cast<ptrdiff_t>(off),
                                   shadow.begin() +
                                       static_cast<ptrdiff_t>(off + n));
          CheckChain(pool, copy, ref, &shapes);
          if (rng.Percent(25)) {
            // Adopt the copy (which may share cluster storage with the
            // original — exercises copy-on-shared paths in later ops).
            pool.FreeChain(m);
            m = copy;
            shadow = ref;
          } else {
            pool.FreeChain(copy);
          }
          break;
        }
        default: {  // Prepend space and fill it.
          size_t n = rng.Range(1, MBuf::kDataSpace);
          m = pool.Prepend(m, n);
          for (size_t i = 0; i < n; ++i) {
            m->data[i] = static_cast<uint8_t>(rng.Next());
          }
          shadow.insert(shadow.begin(), m->data, m->data + n);
          break;
        }
      }
      CheckChain(pool, m, shadow, &shapes);
    }

    pool.FreeChain(m);
    ASSERT_EQ(0u, pool.mbufs_out());
    ASSERT_EQ(0u, pool.clusters_out());
    if (::testing::Test::HasFailure()) {
      break;
    }
  }

  // Every shape the ops must handle came up, many times over.
  EXPECT_GT(shapes.several, kCases);
  EXPECT_GT(shapes.internal, kCases);
  EXPECT_GT(shapes.shared, kCases);

  // The workload buffers lived in the memdebug arena: no fence damage, no
  // leaks, no faults of any kind.
  EXPECT_EQ(0u, md.CheckAll());
  EXPECT_EQ(0u, md.DumpLeaks());
  EXPECT_EQ(0u, md.faults_detected());
}

// PROPERTY_SEED=<n> narrows the sweep to one reproducing seed; otherwise
// five fixed seeds give 10k cases total.
std::vector<uint64_t> PropertySeeds() {
  if (const char* env = std::getenv("PROPERTY_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  return {0x5eed0001, 0x5eed0002, 0x5eed0003, 0x5eed0004, 0x5eed0005};
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbufPropTest,
                         ::testing::ValuesIn(PropertySeeds()));

}  // namespace
