// The benchmark's own checks: epochs repeat exactly at one seed, the traced
// world matches the untraced one, and wrong outputs count as failures.
//
// Build and run: python3 kitbench/run.py --selftest

#include <gtest/gtest.h>

#include "bench.h"

namespace kitbench {
namespace {

constexpr uint64_t kSeed = 7;

std::vector<Epoch> RunEpochs(std::unique_ptr<Workload> w, Probe* probe, int epochs) {
  w->Setup(kSeed, probe);
  std::vector<Epoch> out;
  for (int k = 0; k < epochs; ++k) {
    out.push_back(w->RunEpoch(static_cast<uint64_t>(k)));
  }
  return out;
}

class EveryWorkload : public ::testing::TestWithParam<const char*> {};

// Two untraced worlds at one seed agree on every simulated result, event
// count and kit counter; so does a traced world, which proves the timing
// wrappers change nothing the kit can see.
TEST_P(EveryWorkload, EpochsRepeatExactlyAndTracingIsTransparent) {
  auto first = RunEpochs(MakeWorkload(GetParam()), nullptr, 2);
  auto second = RunEpochs(MakeWorkload(GetParam()), nullptr, 2);
  Probe probe;
  auto traced = RunEpochs(MakeWorkload(GetParam()), &probe, 2);
  for (size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(first[k].Mismatch(second[k]), "") << "epoch " << k;
    EXPECT_EQ(first[k].Mismatch(traced[k]), "") << "epoch " << k;
    EXPECT_GT(first[k].ops, 0u);
    EXPECT_EQ(first[k].failed, 0u);
    EXPECT_GT(first[k].events, 0u);
    EXPECT_FALSE(first[k].counters.empty());
    EXPECT_FALSE(first[k].lat_ns.empty());
  }
  uint64_t calls = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    calls += probe.stats(static_cast<Layer>(l)).calls;
  }
  EXPECT_GT(calls, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kitbench, EveryWorkload,
                         ::testing::Values("http_mixed", "ttcp_rtcp", "crash_sweep"));

// A served file that differs from the catalog by one bit fails every
// response that carries it.
TEST(HttpMixed, CorruptedBodyCountsAsFailure) {
  auto clean = RunEpochs(MakeHttpMixed(), nullptr, 1);
  auto corrupt = RunEpochs(MakeHttpMixed(/*corrupt_file=*/0), nullptr, 1);
  EXPECT_EQ(clean[0].failed, 0u);
  EXPECT_GT(corrupt[0].failed, 0u);
  EXPECT_EQ(corrupt[0].attempted, clean[0].attempted);
  EXPECT_EQ(corrupt[0].ops + corrupt[0].failed, corrupt[0].attempted);
}

// Different seeds make different inputs, so the simulated results differ.
TEST(Seeds, ChangeTheInputs) {
  for (const char* name : {"http_mixed", "ttcp_rtcp", "crash_sweep"}) {
    auto a = MakeWorkload(name);
    auto b = MakeWorkload(name);
    a->Setup(1, nullptr);
    b->Setup(2, nullptr);
    EXPECT_NE(a->RunEpoch(0).lat_ns, b->RunEpoch(0).lat_ns) << name;
  }
}

}  // namespace
}  // namespace kitbench
