// The counter value type shared by every instrumented component.
//
// A Counter is deliberately nothing more than a named slot for a uint64: the
// component that owns it increments a plain machine word on its hot path
// (cheap enough to leave compiled in, per the flight-recorder design goal),
// and the CounterRegistry (src/trace/trace.h) indexes registered counters by
// hierarchical dotted name for snapshots, kmon and the bench reports.  This
// header is dependency-free so that low-level components (lmm, machine) can
// embed counters without pulling in the rest of the trace library.

#ifndef OSKIT_SRC_TRACE_COUNTERS_H_
#define OSKIT_SRC_TRACE_COUNTERS_H_

#include <cstdint>

namespace oskit::trace {

// A monotonic counter or a gauge, depending on how the owner registered it.
// Supports the increment idioms the existing per-module counter structs
// used, so migrated call sites read unchanged.
class Counter {
 public:
  constexpr Counter() = default;
  constexpr explicit Counter(uint64_t value) : value_(value) {}

  Counter& operator++() {
    ++value_;
    return *this;
  }
  uint64_t operator++(int) { return value_++; }
  Counter& operator+=(uint64_t n) {
    value_ += n;
    return *this;
  }

  // Gauges may move in both directions.
  void Set(uint64_t value) { value_ = value; }
  Counter& operator-=(uint64_t n) {
    value_ -= n;
    return *this;
  }

  void Reset() { value_ = 0; }

  uint64_t value() const { return value_; }
  operator uint64_t() const { return value_; }  // NOLINT(google-explicit-constructor)

 private:
  uint64_t value_ = 0;
};

}  // namespace oskit::trace

#endif  // OSKIT_SRC_TRACE_COUNTERS_H_
