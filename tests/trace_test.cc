// Trace component tests: counter registry snapshot/diff, flight recorder
// ring wrap-around, event ordering under fiber preemption, and
// dump-on-panic.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/panic.h"
#include "src/machine/machine.h"
#include "src/trace/trace.h"

namespace oskit::trace {
namespace {

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

TEST(CounterRegistryTest, RegisterLookupUnregister) {
  CounterRegistry registry;
  Counter a;
  EXPECT_EQ(0u, registry.size());
  EXPECT_EQ(0u, registry.Value("net.tcp.out"));

  registry.Register("net.tcp.out", &a);
  ++a;
  a += 4;
  EXPECT_EQ(5u, registry.Value("net.tcp.out"));
  EXPECT_EQ(1u, registry.size());

  registry.Unregister("net.tcp.out", &a);
  EXPECT_EQ(0u, registry.size());
  EXPECT_EQ(0u, registry.Snapshot().count("net.tcp.out"));
}

TEST(CounterRegistryTest, DuplicateNamesSumAcrossInstances) {
  // Two stacks sharing one environment each register the same name;
  // the registry reports the aggregate.
  CounterRegistry registry;
  Counter first;
  Counter second;
  registry.Register("net.ip.in", &first);
  registry.Register("net.ip.in", &second);
  first += 3;
  second += 4;
  EXPECT_EQ(7u, registry.Value("net.ip.in"));
  EXPECT_EQ(1u, registry.size());  // one name, two instances

  registry.Unregister("net.ip.in", &first);
  EXPECT_EQ(4u, registry.Value("net.ip.in"));
}

TEST(CounterRegistryTest, SnapshotAndDiff) {
  CounterRegistry registry;
  Counter sent;
  Counter received;
  registry.Register("tx", &sent);
  registry.Register("rx", &received);
  sent += 10;

  CounterSnapshot before = registry.Snapshot();
  EXPECT_EQ(10u, before.at("tx"));
  EXPECT_EQ(0u, before.at("rx"));

  sent += 5;
  received += 2;
  CounterSnapshot after = registry.Snapshot();
  CounterSnapshot delta = DiffSnapshots(before, after);
  EXPECT_EQ(5u, delta.at("tx"));
  EXPECT_EQ(2u, delta.at("rx"));
}

TEST(CounterRegistryTest, ForEachIsSortedAndPrefixFiltered) {
  CounterRegistry registry;
  Counter a;
  Counter b;
  Counter c;
  registry.Register("net.tcp.out", &a);
  registry.Register("glue.send.copied", &b);
  registry.Register("net.ip.in", &c);

  std::vector<std::string> names;
  registry.ForEach(
      [&](const char* name, uint64_t, bool) { names.emplace_back(name); });
  ASSERT_EQ(3u, names.size());
  EXPECT_EQ("glue.send.copied", names[0]);
  EXPECT_EQ("net.ip.in", names[1]);
  EXPECT_EQ("net.tcp.out", names[2]);

  names.clear();
  registry.ForEach(
      [&](const char* name, uint64_t, bool) { names.emplace_back(name); },
      "net.");
  ASSERT_EQ(2u, names.size());
  EXPECT_EQ("net.ip.in", names[0]);
  EXPECT_EQ("net.tcp.out", names[1]);
}

TEST(CounterRegistryTest, CounterBlockUnbindsOnDestruction) {
  CounterRegistry registry;
  Counter a;
  Counter b;
  {
    CounterBlock block;
    block.Bind(&registry, {{"one", &a}, {"two", &b, /*gauge=*/true}});
    EXPECT_EQ(2u, registry.size());
  }
  EXPECT_EQ(0u, registry.size());
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndFormats) {
  FlightRecorder recorder;
  recorder.Record(EventType::kPacketRx, "ether", 0, 1514);
  ASSERT_EQ(1u, recorder.size());
  const TraceEvent& event = recorder.At(0);
  EXPECT_EQ(EventType::kPacketRx, event.type);
  EXPECT_EQ(1514u, event.arg1);
  EXPECT_EQ(1u, event.seq);

  char line[128];
  FlightRecorder::FormatEvent(event, line, sizeof(line));
  EXPECT_NE(nullptr, std::strstr(line, "packet-rx"));
  EXPECT_NE(nullptr, std::strstr(line, "ether"));
  EXPECT_NE(nullptr, std::strstr(line, "1514"));
}

TEST(FlightRecorderTest, WrapAroundKeepsNewestDropsOldest) {
  constexpr size_t kCap = FlightRecorder::kCapacity;
  FlightRecorder recorder;
  for (uint64_t i = 1; i <= kCap + 2; ++i) {
    recorder.Record(EventType::kMark, "wrap", i);
  }
  EXPECT_EQ(kCap, recorder.size());
  EXPECT_EQ(kCap + 2, recorder.total_recorded());
  EXPECT_EQ(2u, recorder.dropped());
  // Oldest surviving event is #3; order is preserved.
  for (size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(i + 3, recorder.At(i).arg0);
    EXPECT_EQ(i + 3, recorder.At(i).seq);
  }

  recorder.Clear();
  EXPECT_EQ(0u, recorder.size());
  EXPECT_EQ(0u, recorder.total_recorded());
  // Sequence numbers are never reused after a clear.
  recorder.Record(EventType::kMark, "after");
  EXPECT_EQ(kCap + 3, recorder.At(0).seq);
}

TEST(FlightRecorderTest, OrderingUnderFiberPreemption) {
  // Two fibers interleave at sleep points while recording; the ring must
  // show one global order with monotonically increasing sequence numbers
  // and non-decreasing simulated timestamps.
  Simulation sim;
  FlightRecorder recorder;
  recorder.SetTimeSource([&sim] { return sim.clock().Now(); });

  auto worker = [&](const char* tag, uint64_t delay_ns) {
    return [&, tag, delay_ns] {
      for (int i = 0; i < 5; ++i) {
        recorder.Record(EventType::kMark, tag, static_cast<uint64_t>(i));
        sim.SleepFor(delay_ns);
      }
    };
  };
  sim.Spawn("a", worker("a", 30));
  sim.Spawn("b", worker("b", 70));
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim.Run());

  ASSERT_EQ(10u, recorder.size());
  for (size_t i = 1; i < recorder.size(); ++i) {
    EXPECT_LT(recorder.At(i - 1).seq, recorder.At(i).seq);
    EXPECT_LE(recorder.At(i - 1).time, recorder.At(i).time);
  }
  // Both fibers really interleaved: an "a" event lands between "b" events.
  std::string order;
  recorder.ForEach([&](const TraceEvent& event) { order += event.tag; });
  EXPECT_NE(std::string::npos, order.find("ab"));
  EXPECT_NE(std::string::npos, order.find("ba"));

  recorder.SetTimeSource(nullptr);
}

TEST(FlightRecorderTest, DumpOnPanicWritesBufferedEvents) {
  FlightRecorder recorder;
  recorder.Record(EventType::kIrqEnter, "cpu", 14);
  recorder.Record(EventType::kAlloc, "lmm", 0x1000, 64);

  static std::vector<std::string> lines;
  lines.clear();
  recorder.SetDumpSink(
      +[](void*, const char* line) { lines.emplace_back(line); }, nullptr);
  recorder.EnableDumpOnPanic("pc0 flight recorder");

  PanicHandler old = SetPanicHandler(+[](const char*) { throw 42; });
  EXPECT_THROW(Panic("trap 14: page fault"), int);
  SetPanicHandler(old);
  recorder.DisableDumpOnPanic();

  // Banner (with the panic message), buffer summary, then the events.
  ASSERT_EQ(4u, lines.size());
  EXPECT_NE(std::string::npos, lines[0].find("pc0 flight recorder"));
  EXPECT_NE(std::string::npos, lines[0].find("trap 14: page fault"));
  EXPECT_NE(std::string::npos, lines[1].find("2 recorded"));
  EXPECT_NE(std::string::npos, lines[2].find("irq-enter"));
  EXPECT_NE(std::string::npos, lines[3].find("alloc"));
}

// ---------------------------------------------------------------------------
// Span attribution
// ---------------------------------------------------------------------------

TEST(SpanTest, NestedPairingPartitionsSelfTime) {
  TraceEnv env;
  uint64_t now = 0;
  env.recorder.SetTimeSource([&now] { return now; });

  SpanSite outer(&env, "t.outer");
  SpanSite inner(&env, "t.inner");
  EXPECT_EQ(2u, env.spans.site_count());

  env.spans.Begin(&outer);  // t=0
  now = 10;
  env.spans.Begin(&inner);  // t=10
  EXPECT_EQ(2u, env.spans.depth());
  now = 40;
  env.spans.End(&inner);    // inner inclusive = 30
  now = 45;
  env.spans.End(&outer);    // outer inclusive = 45, self = 45 - 30
  EXPECT_EQ(0u, env.spans.depth());

  EXPECT_EQ(1u, outer.count());
  EXPECT_EQ(45u, outer.total_ns());
  EXPECT_EQ(15u, outer.self_ns());
  EXPECT_EQ(1u, inner.count());
  EXPECT_EQ(30u, inner.total_ns());
  EXPECT_EQ(30u, inner.self_ns());

  // Self time partitions the instrumented window exactly once.
  EXPECT_EQ(outer.total_ns(), outer.self_ns() + inner.self_ns());

  // The three counters registered under the site name like any other
  // instrumentation.
  EXPECT_EQ(1u, env.registry.Value("t.outer.count"));
  EXPECT_EQ(45u, env.registry.Value("t.outer.ns"));
  EXPECT_EQ(15u, env.registry.Value("t.outer.self_ns"));
  EXPECT_EQ(30u, env.registry.Value("t.inner.self_ns"));

  // Begin/end events were mirrored into the environment's flight recorder.
  std::string tags;
  env.recorder.ForEach([&](const TraceEvent& event) {
    if (event.type == EventType::kSpanBegin ||
        event.type == EventType::kSpanEnd) {
      tags += event.tag;
      tags += ';';
    }
  });
  EXPECT_EQ("t.outer;t.inner;t.inner;t.outer;", tags);
}

TEST(SpanTest, AddSampleChargesMeasuredIntervals) {
  // Interval-style attribution for phases that cannot hold a stack
  // discipline (a flush spanning many selector harvests).
  TraceEnv env;
  SpanSite flush(&env, "t.flush");
  flush.AddSample(100);
  flush.AddSample(250);
  EXPECT_EQ(2u, flush.count());
  EXPECT_EQ(350u, flush.total_ns());
  EXPECT_EQ(350u, flush.self_ns());
  EXPECT_EQ(0u, env.spans.depth());  // no stack involvement
}

TEST(SpanTest, ScopedSpansUnderSimClockAreMonotone) {
  // A fiber that sleeps inside nested ScopedSpans: durations come out of
  // the simulated clock, so attribution is exact and deterministic.
  Simulation sim;
  TraceEnv env;
  env.recorder.SetTimeSource([&sim] { return sim.clock().Now(); });

  SpanSite request(&env, "t.request");
  SpanSite disk(&env, "t.disk");
  sim.Spawn("worker", [&] {
    for (int i = 0; i < 3; ++i) {
      ScopedSpan outer(&request);
      sim.SleepFor(100);
      {
        ScopedSpan io(&disk);
        sim.SleepFor(400);
      }
      sim.SleepFor(50);
    }
  });
  ASSERT_EQ(Simulation::RunResult::kAllDone, sim.Run());

  EXPECT_EQ(3u, request.count());
  EXPECT_EQ(3u * 550u, request.total_ns());
  EXPECT_EQ(3u * 150u, request.self_ns());
  EXPECT_EQ(3u * 400u, disk.total_ns());
  EXPECT_EQ(3u * 400u, disk.self_ns());
  EXPECT_EQ(request.total_ns(), request.self_ns() + disk.self_ns());
}

TEST(SpanTest, MismatchedEndPanics) {
  TraceEnv env;
  SpanSite a(&env, "t.a");
  SpanSite b(&env, "t.b");
  env.spans.Begin(&a);
  env.spans.Begin(&b);

  PanicHandler old = SetPanicHandler(+[](const char*) { throw 42; });
  EXPECT_THROW(env.spans.End(&a), int);  // b is innermost
  SetPanicHandler(old);

  env.spans.End(&b);
  env.spans.End(&a);
}

TEST(SpanTest, DumpHotSortsBySelfTime) {
  TraceEnv env;
  SpanSite hot(&env, "t.hot");
  SpanSite warm(&env, "t.warm");
  SpanSite idle(&env, "t.idle");  // zero count: skipped
  hot.AddSample(900);
  warm.AddSample(100);

  std::vector<std::string> lines;
  env.spans.DumpHot([&](const char* line) { lines.emplace_back(line); });

  // Header + two live sites, self-time descending with percentages.
  ASSERT_EQ(3u, lines.size());
  EXPECT_NE(std::string::npos, lines[0].find("self%"));
  EXPECT_NE(std::string::npos, lines[1].find("t.hot"));
  EXPECT_NE(std::string::npos, lines[1].find("90.0%"));
  EXPECT_NE(std::string::npos, lines[2].find("t.warm"));
  EXPECT_NE(std::string::npos, lines[2].find("10.0%"));
  for (const std::string& line : lines) {
    EXPECT_EQ(std::string::npos, line.find("t.idle"));
  }
}

TEST(SpanTest, DumpOnPanicShowsTableAndOpenSpans) {
  // A crash mid-request must show which phase it died in: the attribution
  // table plus the still-open span stack, outermost first.
  TraceEnv env;
  uint64_t now = 0;
  env.recorder.SetTimeSource([&now] { return now; });
  SpanSite accept(&env, "t.accept");
  SpanSite parse(&env, "t.parse");
  accept.AddSample(70);  // some history for the table

  env.spans.Begin(&accept);
  now = 20;
  env.spans.Begin(&parse);
  now = 35;

  static std::vector<std::string> lines;
  lines.clear();
  env.spans.SetDumpSink(
      +[](void*, const char* line) { lines.emplace_back(line); }, nullptr);
  env.spans.EnableDumpOnPanic("www span attribution");

  PanicHandler old = SetPanicHandler(+[](const char*) { throw 42; });
  EXPECT_THROW(Panic("trap 14 in request handler"), int);
  SetPanicHandler(old);
  env.spans.DisableDumpOnPanic();

  std::string all;
  for (const std::string& line : lines) {
    all += line;
    all += '\n';
  }
  // Banner carries the panic message; the table shows the closed history.
  EXPECT_NE(std::string::npos, all.find("www span attribution"));
  EXPECT_NE(std::string::npos, all.find("trap 14 in request handler"));
  EXPECT_NE(std::string::npos, all.find("t.accept"));
  // Both open spans dumped, outermost first, with live elapsed times.
  size_t open_accept = all.find("OPEN t.accept");
  size_t open_parse = all.find("OPEN t.parse");
  ASSERT_NE(std::string::npos, open_accept);
  ASSERT_NE(std::string::npos, open_parse);
  EXPECT_LT(open_accept, open_parse);
  EXPECT_NE(std::string::npos, all.find("elapsed=35", open_accept));
  EXPECT_NE(std::string::npos, all.find("elapsed=15", open_parse));

  env.spans.End(&parse);
  env.spans.End(&accept);
}

}  // namespace
}  // namespace oskit::trace
