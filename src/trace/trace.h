// The trace component: unified counters and a flight recorder.
//
// The paper sells the OSKit on separability and introspectability — §3.5's
// debugging aids and §4.6's "open implementation" (exposed free-list
// walking, client-visible internals).  This component is that idea applied
// to measurement: one registry of named, hierarchical counters shared by
// every subsystem (net.tcp.retransmits, glue.send.copied_bytes,
// lmm.alloc_calls, ...), and a fixed-size ring of typed trace events (IRQ
// enter/exit, packet rx/tx, buffer map/copy, sleep/wakeup, alloc/free)
// cheap enough to leave compiled in.
//
// The owner rule: a component reaches its TraceEnv only through its client,
// as every OSKit component reaches its environment (§4).  The kernel
// (KernelEnv) is the one owner that decides which environment its
// components report into: it uses the one it is handed or makes its own.
// Every other component takes a non-null TraceEnv* and checks it once at
// construction (Required below), so no two worlds share a registry and
// nothing reports into an environment nobody handed it.

#ifndef OSKIT_SRC_TRACE_TRACE_H_
#define OSKIT_SRC_TRACE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/panic.h"
#include "src/trace/counters.h"

namespace oskit::trace {

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

// name -> value at one instant; the unit of snapshot/diff reporting.
using CounterSnapshot = std::map<std::string, uint64_t>;

// after - before for every name in `after` (names absent from `before`
// count from zero).  Unchanged counters are dropped.
CounterSnapshot DiffSnapshots(const CounterSnapshot& before,
                              const CounterSnapshot& after);

// Indexes counters owned by components under hierarchical dotted names.
// Registration is non-owning: the component keeps the Counter (its hot path
// touches a plain word), the registry only reads through the pointer.  The
// same name may be registered by several instances (two NetStacks on one
// host's environment); the registry reports their sum.
class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  void Register(const std::string& name, Counter* counter, bool gauge = false);
  void Unregister(const std::string& name, Counter* counter);

  // Sum across registered instances; 0 when the name is unknown.
  uint64_t Value(const std::string& name) const;

  size_t size() const { return entries_.size(); }

  CounterSnapshot Snapshot() const;

  // Deterministic (name-sorted) iteration, optionally restricted to names
  // starting with `prefix`.  The name pointer is valid while the entry
  // stays registered.
  void ForEach(const std::function<void(const char* name, uint64_t value,
                                        bool gauge)>& fn,
               const std::string& prefix = "") const;

 private:
  struct Entry {
    std::vector<Counter*> instances;
    bool gauge = false;
  };
  std::map<std::string, Entry> entries_;
};

// RAII bulk binding: a component lists its (name, counter) pairs once in its
// constructor and forgets about them; destruction unregisters.
class CounterBlock {
 public:
  CounterBlock() = default;
  ~CounterBlock() { Unbind(); }
  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;

  struct Item {
    const char* name;
    Counter* counter;
    bool gauge = false;
  };

  void Bind(CounterRegistry* registry, std::initializer_list<Item> items);
  void Unbind();

 private:
  CounterRegistry* registry_ = nullptr;
  std::vector<std::pair<std::string, Counter*>> bound_;
};

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

enum class EventType : uint8_t {
  kIrqEnter,
  kIrqExit,
  kTrap,
  kPacketRx,
  kPacketTx,
  kBufMap,   // foreign buffer mapped at a glue boundary (zero copy)
  kBufCopy,  // foreign buffer copied at a glue boundary
  kSleep,
  kWakeup,
  kAlloc,
  kFree,
  kSpanBegin,  // attribution span opened (tag = site name)
  kSpanEnd,    // attribution span closed (arg0 = duration ns)
  kMark,       // free-form client event
};

const char* EventTypeName(EventType type);

struct TraceEvent {
  uint64_t seq = 0;   // global recording order, never reused
  uint64_t time = 0;  // from the environment's time source (sim clock)
  EventType type = EventType::kMark;
  const char* tag = "";  // static string naming the site
  uint64_t arg0 = 0;     // type-specific (vector number, byte count, ...)
  uint64_t arg1 = 0;
};

// Fixed-size ring of trace events.  Recording never allocates and wraps
// around at capacity, dropping the oldest events; a dump-on-panic hook can
// be wired into the src/base panic plumbing so the last events survive a
// crash.
class FlightRecorder {
 public:
  static constexpr size_t kCapacity = 1024;

  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Timestamps default to the recording sequence number until a clock is
  // wired in (the testbed supplies the simulated clock).  The environment's
  // SpanTracker times its spans from the same clock.
  void SetTimeSource(std::function<uint64_t()> now) { now_ = std::move(now); }
  // The wired clock's reading; 0 when none is wired.
  uint64_t ClockNs() const { return now_ ? now_() : 0; }

  void Record(EventType type, const char* tag, uint64_t arg0 = 0,
              uint64_t arg1 = 0);

  // Events currently buffered (<= kCapacity).
  size_t size() const;
  uint64_t total_recorded() const { return total_recorded_; }
  // Events lost to wrap-around.
  uint64_t dropped() const { return total_recorded_ - size(); }

  // index 0 = oldest buffered event.
  const TraceEvent& At(size_t index) const;

  void Clear();

  void ForEach(const std::function<void(const TraceEvent&)>& fn) const;

  // "seq=12 t=3400 packet-rx ether arg0=0 arg1=1514"
  static void FormatEvent(const TraceEvent& event, char* buf, size_t len);

  // ---- dump-on-panic ----
  using DumpSink = void (*)(void* ctx, const char* line);

  // Where dumps go; defaults to stderr.
  void SetDumpSink(DumpSink sink, void* ctx);

  // Registers with the src/base panic observer list: on Panic() the
  // buffered events are written to the dump sink (banner first) before the
  // panic handler runs.
  void EnableDumpOnPanic(const char* banner);
  void DisableDumpOnPanic();

  void DumpTo(DumpSink sink, void* ctx) const;

 private:
  static void PanicObserverThunk(void* ctx, const char* message);

  std::vector<TraceEvent> ring_;
  size_t next_ = 0;  // slot the next event lands in
  uint64_t total_recorded_ = 0;
  uint64_t next_seq_ = 1;
  std::function<uint64_t()> now_;
  DumpSink dump_sink_ = nullptr;  // null = stderr
  void* dump_ctx_ = nullptr;
  const char* panic_banner_ = nullptr;
  bool panic_hooked_ = false;
};

// ---------------------------------------------------------------------------
// Cycle-level span attribution
// ---------------------------------------------------------------------------
//
// Counters say how often a hot path ran; spans say where the TIME went.  A
// SpanSite is a named section of a hot path ("http.span.flush",
// "http.span.fs_read"); the per-environment SpanTracker keeps a stack of
// open spans and charges each closed span's duration — from the same
// simulated-time source the flight recorder uses, so attribution stays
// deterministic — to its site:
//
//   <name>.count    completed spans
//   <name>.ns       inclusive time (span open -> close)
//   <name>.self_ns  exclusive time (inclusive minus nested child spans)
//
// Self time is what makes the numbers an attribution rather than a pile of
// overlapping totals: summed across sites, self_ns partitions the
// instrumented time exactly once, so "61% of request time is in flush" is a
// statement that adds up.  The counters register under the site name in the
// environment's registry, so kmon `counters` and the bench JSON reports
// read them like any other instrumentation; kmon `hot` renders the sorted
// table.
//
// Two usage styles:
//   * ScopedSpan brackets a synchronous section of one thread of control
//     (nests, pairing enforced);
//   * SpanSite::AddSample charges an explicitly measured interval — for
//     phases that span event-loop iterations (a response flush that waits
//     for writability across many selector harvests) where a stack
//     discipline cannot hold.

struct TraceEnv;
class SpanTracker;

// One named hot-path section.  Construction registers the three counters
// with the environment's registry and the site with the environment's
// tracker; destruction unregisters both.
class SpanSite {
 public:
  // `name` must be a static string (it is reported by pointer, like
  // TraceEvent::tag).
  SpanSite(TraceEnv* env, const char* name);
  ~SpanSite();
  SpanSite(const SpanSite&) = delete;
  SpanSite& operator=(const SpanSite&) = delete;

  const char* name() const { return name_; }
  uint64_t count() const { return count_.value(); }
  uint64_t total_ns() const { return total_ns_.value(); }
  uint64_t self_ns() const { return self_ns_.value(); }

  // Interval-style attribution: charges an explicitly measured duration
  // (self == inclusive; no nesting semantics).
  void AddSample(uint64_t duration_ns);

  SpanTracker* tracker() const { return tracker_; }

 private:
  friend class SpanTracker;
  const char* name_;
  SpanTracker* tracker_;
  Counter count_;
  Counter total_ns_;
  Counter self_ns_;
  CounterBlock binding_;
};

// Per-environment open-span stack + site index.  Lives inside TraceEnv like
// the registry and recorder; components never construct one.
class SpanTracker {
 public:
  static constexpr size_t kMaxDepth = 64;

  SpanTracker() = default;
  ~SpanTracker();
  SpanTracker(const SpanTracker&) = delete;
  SpanTracker& operator=(const SpanTracker&) = delete;

  // Span begin/end events are mirrored into this recorder when set (the
  // TraceEnv constructor wires its own), and durations come from the
  // recorder's time source.  Without a source every span is 0 ns — counts
  // still accumulate.
  void SetRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // Opens/closes a span.  End must match the innermost open span — a
  // mismatched or underflowed End panics (pairing is a component invariant,
  // like mbuf chain lengths).
  void Begin(SpanSite* site);
  void End(SpanSite* site);

  size_t depth() const { return depth_; }
  size_t site_count() const { return sites_.size(); }

  // Open spans, outermost first: (site, start_ns, child_ns accrued so far).
  void ForEachOpen(const std::function<void(const SpanSite*, uint64_t,
                                            uint64_t)>& fn) const;

  // The attribution table: one line per site, self-time descending, with
  // self-percent of the instrumented total.  Sites with zero count are
  // skipped.  Backs kmon `hot`.
  void DumpHot(const std::function<void(const char*)>& emit) const;

  // Registers with the src/base panic observer list: on Panic() the table
  // AND the still-open span stack are written to the dump sink (stderr by
  // default), so a crash mid-request shows which phase it died in.
  void EnableDumpOnPanic(const char* banner);
  void DisableDumpOnPanic();
  void SetDumpSink(FlightRecorder::DumpSink sink, void* ctx);

 private:
  friend class SpanSite;
  static void PanicObserverThunk(void* ctx, const char* message);
  void Register(SpanSite* site);
  void Unregister(SpanSite* site);
  uint64_t NowNs() const { return recorder_ != nullptr ? recorder_->ClockNs() : 0; }

  struct Open {
    SpanSite* site;
    uint64_t start_ns;
    uint64_t child_ns;  // closed children's inclusive time
  };

  std::vector<SpanSite*> sites_;
  Open stack_[kMaxDepth] = {};
  size_t depth_ = 0;
  FlightRecorder* recorder_ = nullptr;
  FlightRecorder::DumpSink dump_sink_ = nullptr;  // null = stderr
  void* dump_ctx_ = nullptr;
  const char* panic_banner_ = nullptr;
  bool panic_hooked_ = false;
};

// RAII span bracket.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite* site) : site_(site) {
    site_->tracker()->Begin(site_);
  }
  ~ScopedSpan() { site_->tracker()->End(site_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_;
};

// ---------------------------------------------------------------------------
// The environment components bind to
// ---------------------------------------------------------------------------

struct TraceEnv {
  TraceEnv() { spans.SetRecorder(&recorder); }
  CounterRegistry registry;
  FlightRecorder recorder;
  SpanTracker spans;
};

// A component's one check of the environment its client handed it.
inline TraceEnv* Required(TraceEnv* env) {
  OSKIT_ASSERT_MSG(env != nullptr, "component handed no trace environment");
  return env;
}

}  // namespace oskit::trace

#endif  // OSKIT_SRC_TRACE_TRACE_H_
