// Helpers shared by the benchmark binaries.

#ifndef OSKIT_BENCH_BENCH_UTIL_H_
#define OSKIT_BENCH_BENCH_UTIL_H_

#include <cstddef>
#include <vector>

#include "src/com/netselector.h"
#include "src/com/socket.h"

namespace oskit::bench {

// The p-quantile (0 <= p <= 1) of `sorted` by nearest rank, rounding the
// rank down; 0 for no samples.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

// The socket's SocketExt interface (a new reference), or null if it has
// none.
inline SocketExt* QueryExt(Socket* s) {
  void* extp = nullptr;
  if (!Ok(s->Query(SocketExt::kIid, &extp))) {
    return nullptr;
  }
  return static_cast<SocketExt*>(extp);
}

}  // namespace oskit::bench

#endif  // OSKIT_BENCH_BENCH_UTIL_H_
