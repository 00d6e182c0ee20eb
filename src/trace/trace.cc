#include "src/trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/base/panic.h"

namespace oskit::trace {

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

CounterSnapshot DiffSnapshots(const CounterSnapshot& before,
                              const CounterSnapshot& after) {
  CounterSnapshot diff;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t base = it != before.end() ? it->second : 0;
    if (value != base) {
      diff[name] = value - base;
    }
  }
  return diff;
}

void CounterRegistry::Register(const std::string& name, Counter* counter,
                               bool gauge) {
  OSKIT_ASSERT_MSG(counter != nullptr, "null counter registered");
  Entry& entry = entries_[name];
  entry.gauge = entry.gauge || gauge;
  entry.instances.push_back(counter);
}

void CounterRegistry::Unregister(const std::string& name, Counter* counter) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return;
  }
  auto& instances = it->second.instances;
  for (auto inst = instances.begin(); inst != instances.end(); ++inst) {
    if (*inst == counter) {
      instances.erase(inst);
      break;
    }
  }
  if (instances.empty()) {
    entries_.erase(it);
  }
}

uint64_t CounterRegistry::Value(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return 0;
  }
  uint64_t sum = 0;
  for (const Counter* counter : it->second.instances) {
    sum += counter->value();
  }
  return sum;
}

CounterSnapshot CounterRegistry::Snapshot() const {
  CounterSnapshot snap;
  for (const auto& [name, entry] : entries_) {
    uint64_t sum = 0;
    for (const Counter* counter : entry.instances) {
      sum += counter->value();
    }
    snap[name] = sum;
  }
  return snap;
}

void CounterRegistry::ForEach(
    const std::function<void(const char* name, uint64_t value, bool gauge)>& fn,
    const std::string& prefix) const {
  for (const auto& [name, entry] : entries_) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    uint64_t sum = 0;
    for (const Counter* counter : entry.instances) {
      sum += counter->value();
    }
    fn(name.c_str(), sum, entry.gauge);
  }
}

void CounterBlock::Bind(CounterRegistry* registry,
                        std::initializer_list<Item> items) {
  OSKIT_ASSERT_MSG(registry_ == nullptr, "CounterBlock bound twice");
  registry_ = registry;
  for (const Item& item : items) {
    registry_->Register(item.name, item.counter, item.gauge);
    bound_.emplace_back(item.name, item.counter);
  }
}

void CounterBlock::Unbind() {
  if (registry_ == nullptr) {
    return;
  }
  for (const auto& [name, counter] : bound_) {
    registry_->Unregister(name, counter);
  }
  bound_.clear();
  registry_ = nullptr;
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kIrqEnter:
      return "irq-enter";
    case EventType::kIrqExit:
      return "irq-exit";
    case EventType::kTrap:
      return "trap";
    case EventType::kPacketRx:
      return "packet-rx";
    case EventType::kPacketTx:
      return "packet-tx";
    case EventType::kBufMap:
      return "buf-map";
    case EventType::kBufCopy:
      return "buf-copy";
    case EventType::kSleep:
      return "sleep";
    case EventType::kWakeup:
      return "wakeup";
    case EventType::kAlloc:
      return "alloc";
    case EventType::kFree:
      return "free";
    case EventType::kSpanBegin:
      return "span-begin";
    case EventType::kSpanEnd:
      return "span-end";
    case EventType::kMark:
      return "mark";
  }
  return "?";
}

FlightRecorder::FlightRecorder() : ring_(kCapacity) {}

FlightRecorder::~FlightRecorder() { DisableDumpOnPanic(); }

void FlightRecorder::Record(EventType type, const char* tag, uint64_t arg0,
                            uint64_t arg1) {
  TraceEvent& slot = ring_[next_];
  slot.seq = next_seq_++;
  slot.time = now_ ? now_() : slot.seq;
  slot.type = type;
  slot.tag = tag != nullptr ? tag : "";
  slot.arg0 = arg0;
  slot.arg1 = arg1;
  next_ = (next_ + 1) % kCapacity;
  ++total_recorded_;
}

size_t FlightRecorder::size() const {
  return total_recorded_ < kCapacity ? static_cast<size_t>(total_recorded_) : kCapacity;
}

const TraceEvent& FlightRecorder::At(size_t index) const {
  OSKIT_ASSERT_MSG(index < size(), "flight recorder index out of range");
  size_t count = size();
  // Oldest buffered event sits at next_ once the ring has wrapped.
  size_t oldest = total_recorded_ > count ? next_ : 0;
  return ring_[(oldest + index) % kCapacity];
}

void FlightRecorder::Clear() {
  next_ = 0;
  total_recorded_ = 0;
}

void FlightRecorder::ForEach(
    const std::function<void(const TraceEvent&)>& fn) const {
  size_t count = size();
  for (size_t i = 0; i < count; ++i) {
    fn(At(i));
  }
}

void FlightRecorder::FormatEvent(const TraceEvent& event, char* buf,
                                 size_t len) {
  std::snprintf(buf, len,
                "seq=%llu t=%llu %s %s arg0=%llu arg1=%llu",
                static_cast<unsigned long long>(event.seq),
                static_cast<unsigned long long>(event.time),
                EventTypeName(event.type), event.tag,
                static_cast<unsigned long long>(event.arg0),
                static_cast<unsigned long long>(event.arg1));
}

namespace {

void StderrSink(void* /*ctx*/, const char* line) {
  std::fprintf(stderr, "%s\n", line);
}

}  // namespace

void FlightRecorder::SetDumpSink(DumpSink sink, void* ctx) {
  dump_sink_ = sink;
  dump_ctx_ = ctx;
}

void FlightRecorder::EnableDumpOnPanic(const char* banner) {
  panic_banner_ = banner != nullptr ? banner : "flight recorder";
  if (!panic_hooked_) {
    AddPanicObserver(&FlightRecorder::PanicObserverThunk, this);
    panic_hooked_ = true;
  }
}

void FlightRecorder::DisableDumpOnPanic() {
  if (panic_hooked_) {
    RemovePanicObserver(&FlightRecorder::PanicObserverThunk, this);
    panic_hooked_ = false;
  }
}

void FlightRecorder::DumpTo(DumpSink sink, void* ctx) const {
  if (sink == nullptr) {
    sink = &StderrSink;
    ctx = nullptr;
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "flight recorder: %llu recorded, %zu buffered, %llu dropped",
                static_cast<unsigned long long>(total_recorded_), size(),
                static_cast<unsigned long long>(dropped()));
  sink(ctx, line);
  size_t count = size();
  for (size_t i = 0; i < count; ++i) {
    FormatEvent(At(i), line, sizeof(line));
    sink(ctx, line);
  }
}

void FlightRecorder::PanicObserverThunk(void* ctx, const char* message) {
  auto* recorder = static_cast<FlightRecorder*>(ctx);
  DumpSink sink = recorder->dump_sink_ != nullptr ? recorder->dump_sink_
                                                  : &StderrSink;
  char line[192];
  std::snprintf(line, sizeof(line), "=== %s (panic: %s) ===",
                recorder->panic_banner_, message);
  sink(recorder->dump_ctx_, line);
  recorder->DumpTo(recorder->dump_sink_, recorder->dump_ctx_);
}

// ---------------------------------------------------------------------------
// Span attribution
// ---------------------------------------------------------------------------

SpanSite::SpanSite(TraceEnv* env, const char* name) : name_(name) {
  TraceEnv* resolved = Required(env);
  tracker_ = &resolved->spans;
  // Site names are short static strings; build the three dotted names once.
  std::string base(name_);
  binding_.Bind(&resolved->registry,
                {{(base + ".count").c_str(), &count_},
                 {(base + ".ns").c_str(), &total_ns_},
                 {(base + ".self_ns").c_str(), &self_ns_}});
  tracker_->Register(this);
}

SpanSite::~SpanSite() { tracker_->Unregister(this); }

void SpanSite::AddSample(uint64_t duration_ns) {
  count_ += 1;
  total_ns_ += duration_ns;
  self_ns_ += duration_ns;
  if (tracker_->recorder_ != nullptr) {
    tracker_->recorder_->Record(EventType::kSpanEnd, name_, duration_ns);
  }
}

SpanTracker::~SpanTracker() { DisableDumpOnPanic(); }

void SpanTracker::Register(SpanSite* site) { sites_.push_back(site); }

void SpanTracker::Unregister(SpanSite* site) {
  OSKIT_ASSERT_MSG(depth_ == 0 || stack_[depth_ - 1].site != site,
                   "span site destroyed while open");
  for (auto it = sites_.begin(); it != sites_.end(); ++it) {
    if (*it == site) {
      sites_.erase(it);
      return;
    }
  }
}

void SpanTracker::Begin(SpanSite* site) {
  OSKIT_ASSERT_MSG(depth_ < kMaxDepth, "span stack overflow");
  stack_[depth_++] = Open{site, NowNs(), 0};
  if (recorder_ != nullptr) {
    recorder_->Record(EventType::kSpanBegin, site->name_, depth_);
  }
}

void SpanTracker::End(SpanSite* site) {
  OSKIT_ASSERT_MSG(depth_ > 0, "span end with no open span");
  Open& top = stack_[depth_ - 1];
  OSKIT_ASSERT_MSG(top.site == site, "span end does not match innermost open");
  uint64_t now = NowNs();
  OSKIT_ASSERT_MSG(now >= top.start_ns, "span clock ran backwards");
  uint64_t inclusive = now - top.start_ns;
  OSKIT_ASSERT_MSG(inclusive >= top.child_ns,
                   "span children outlasted their parent");
  site->count_ += 1;
  site->total_ns_ += inclusive;
  site->self_ns_ += inclusive - top.child_ns;
  --depth_;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += inclusive;
  }
  if (recorder_ != nullptr) {
    recorder_->Record(EventType::kSpanEnd, site->name_, inclusive);
  }
}

void SpanTracker::ForEachOpen(
    const std::function<void(const SpanSite*, uint64_t, uint64_t)>& fn) const {
  for (size_t i = 0; i < depth_; ++i) {
    fn(stack_[i].site, stack_[i].start_ns, stack_[i].child_ns);
  }
}

void SpanTracker::DumpHot(const std::function<void(const char*)>& emit) const {
  std::vector<const SpanSite*> live;
  uint64_t total_self = 0;
  for (const SpanSite* site : sites_) {
    if (site->count() == 0) {
      continue;
    }
    live.push_back(site);
    total_self += site->self_ns();
  }
  std::sort(live.begin(), live.end(),
            [](const SpanSite* a, const SpanSite* b) {
              if (a->self_ns() != b->self_ns()) {
                return a->self_ns() > b->self_ns();
              }
              return std::strcmp(a->name(), b->name()) < 0;
            });
  char line[192];
  std::snprintf(line, sizeof(line), "%-32s %10s %14s %14s %6s", "site",
                "count", "total_ns", "self_ns", "self%");
  emit(line);
  for (const SpanSite* site : live) {
    double pct = total_self > 0
                     ? 100.0 * static_cast<double>(site->self_ns()) /
                           static_cast<double>(total_self)
                     : 0.0;
    std::snprintf(line, sizeof(line), "%-32s %10llu %14llu %14llu %5.1f%%",
                  site->name(),
                  static_cast<unsigned long long>(site->count()),
                  static_cast<unsigned long long>(site->total_ns()),
                  static_cast<unsigned long long>(site->self_ns()), pct);
    emit(line);
  }
  if (live.empty()) {
    emit("(no completed spans)");
  }
}

void SpanTracker::SetDumpSink(FlightRecorder::DumpSink sink, void* ctx) {
  dump_sink_ = sink;
  dump_ctx_ = ctx;
}

void SpanTracker::EnableDumpOnPanic(const char* banner) {
  panic_banner_ = banner != nullptr ? banner : "span attribution";
  if (!panic_hooked_) {
    AddPanicObserver(&SpanTracker::PanicObserverThunk, this);
    panic_hooked_ = true;
  }
}

void SpanTracker::DisableDumpOnPanic() {
  if (panic_hooked_) {
    RemovePanicObserver(&SpanTracker::PanicObserverThunk, this);
    panic_hooked_ = false;
  }
}

void SpanTracker::PanicObserverThunk(void* ctx, const char* message) {
  auto* tracker = static_cast<SpanTracker*>(ctx);
  FlightRecorder::DumpSink sink =
      tracker->dump_sink_ != nullptr ? tracker->dump_sink_ : &StderrSink;
  void* sink_ctx = tracker->dump_ctx_;
  char line[192];
  std::snprintf(line, sizeof(line), "=== %s (panic: %s) ===",
                tracker->panic_banner_, message);
  sink(sink_ctx, line);
  tracker->DumpHot([&](const char* l) { sink(sink_ctx, l); });
  if (tracker->depth_ > 0) {
    uint64_t now = tracker->NowNs();
    std::snprintf(line, sizeof(line), "open spans (innermost last):");
    sink(sink_ctx, line);
    tracker->ForEachOpen([&](const SpanSite* site, uint64_t start_ns,
                             uint64_t child_ns) {
      std::snprintf(line, sizeof(line),
                    "  OPEN %-26s started=%llu elapsed=%llu child=%llu",
                    site->name(), static_cast<unsigned long long>(start_ns),
                    static_cast<unsigned long long>(
                        now >= start_ns ? now - start_ns : 0),
                    static_cast<unsigned long long>(child_ns));
      sink(sink_ctx, line);
    });
  }
}

}  // namespace oskit::trace
