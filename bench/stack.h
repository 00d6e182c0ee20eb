// The blkio layer compositions that crash_campaign and aio_campaign mount
// the filesystem on.

#ifndef OSKIT_BENCH_STACK_H_
#define OSKIT_BENCH_STACK_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/aio/stack.h"
#include "src/diskpart/diskpart.h"
#include "src/fs/cache.h"

namespace oskit::bench {

// The plain mount and every order of the three layers.
inline const char* const kStackMatrix[] = {
    "",                       "stripe,checksum,cache", "stripe,cache,checksum",
    "checksum,stripe,cache",  "checksum,cache,stripe", "cache,stripe,checksum",
    "cache,checksum,stripe"};

// Builds the composition `spec`, listed bottom-up ("stripe,checksum,cache"
// = cache on top), over `base`; "" is `base` itself.  The striping layer
// splits the SAME underlying device into two partition-view members, so a
// power cut stays atomic across all stripes, as it would be for two
// platters behind one controller.  An unknown layer exits 2.
inline ComPtr<BlkIo> ApplyStack(ComPtr<BlkIo> base, std::string_view spec,
                                trace::TraceEnv* tenv) {
  ComPtr<BlkIo> top = std::move(base);
  while (!spec.empty()) {
    size_t comma = spec.find(',');
    std::string_view layer = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? "" : spec.substr(comma + 1);
    if (layer == "stripe") {
      off_t64 size = 0;
      top->GetSize(&size);
      uint64_t half = (size / 512) / 2;
      std::vector<ComPtr<BlkIo>> members;
      members.push_back(MakePartitionView(top.get(), {0, half}));
      members.push_back(MakePartitionView(top.get(), {half, half}));
      // Unit = 2048 rounded up to the member block size (a cache layer
      // below the stripe presents 4 KiB blocks).
      uint32_t bs = members[0]->GetBlockSize();
      uint32_t unit = (2048 + bs - 1) / bs * bs;
      top = ComPtr<BlkIo>::FromQuery(
          aio::StripeBlkIo::Create(std::move(members), unit, tenv).get());
    } else if (layer == "checksum") {
      top = ComPtr<BlkIo>::FromQuery(
          aio::ChecksumBlkIo::Create(top.get(), tenv).get());
    } else if (layer == "cache") {
      top = ComPtr<BlkIo>::FromQuery(
          fs::CacheBlkIo::Create(top.get(), 4096, 64, tenv).get());
    } else {
      std::fprintf(stderr, "unknown stack layer: %.*s\n",
                   static_cast<int>(layer.size()), layer.data());
      std::exit(2);
    }
  }
  return top;
}

}  // namespace oskit::bench

#endif  // OSKIT_BENCH_STACK_H_
