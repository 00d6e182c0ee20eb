// Memory-debugging library tests (§3.5): seeded faults must be detected.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/memdebug/memdebug.h"

namespace oskit {
namespace {

class MemDebugTest : public ::testing::Test {
 protected:
  void SetUp() override {
    debug_ = std::make_unique<MemDebug>(libc::HostMemEnv());
    faults_.clear();
    debug_->SetReporter(
        +[](void* ctx, MemDebug::Fault fault, const char*, void*) {
          static_cast<MemDebugTest*>(ctx)->faults_.push_back(fault);
        },
        this);
  }

  bool Saw(MemDebug::Fault fault) const {
    for (MemDebug::Fault f : faults_) {
      if (f == fault) {
        return true;
      }
    }
    return false;
  }

  // Declared before debug_ so it outlives it: ~MemDebug's final fence
  // check still reports into this vector.
  std::vector<MemDebug::Fault> faults_;
  std::unique_ptr<MemDebug> debug_;
};

TEST_F(MemDebugTest, CleanUsageReportsNothing) {
  for (int i = 0; i < 100; ++i) {
    void* p = debug_->Alloc(i * 7 + 1, "clean");
    memset(p, 0x5a, i * 7 + 1);
    debug_->Free(p);
  }
  EXPECT_EQ(0u, debug_->CheckAll());
  EXPECT_EQ(0u, debug_->faults_detected());
  EXPECT_EQ(0u, debug_->live_blocks());
}

TEST_F(MemDebugTest, DetectsBufferOverrun) {
  auto* p = static_cast<uint8_t*>(debug_->Alloc(32, "overrun"));
  p[32] = 0xff;  // one past the end
  debug_->Free(p);
  EXPECT_TRUE(Saw(MemDebug::Fault::kOverrun));
}

TEST_F(MemDebugTest, DetectsBufferUnderrun) {
  auto* p = static_cast<uint8_t*>(debug_->Alloc(32, "underrun"));
  p[-1] = 0xff;
  debug_->Free(p);
  EXPECT_TRUE(Saw(MemDebug::Fault::kUnderrun));
}

TEST_F(MemDebugTest, DetectsDoubleFree) {
  void* p = debug_->Alloc(16, "double");
  debug_->Free(p);
  debug_->Free(p);
  EXPECT_TRUE(Saw(MemDebug::Fault::kDoubleFree));
  EXPECT_EQ(1u, debug_->faults_detected());
}

TEST_F(MemDebugTest, DetectsWriteAfterFree) {
  auto* p = static_cast<uint8_t*>(debug_->Alloc(64, "uaf"));
  debug_->Free(p);
  p[10] = 0x00;  // block is quarantined, not recycled
  EXPECT_GT(debug_->CheckAll(), 0u);
  EXPECT_TRUE(Saw(MemDebug::Fault::kWriteAfterFree));
}

TEST_F(MemDebugTest, CheckAllFindsLiveCorruption) {
  auto* p = static_cast<uint8_t*>(debug_->Alloc(8, "live"));
  EXPECT_EQ(0u, debug_->CheckAll());
  p[8] = 0x01;
  EXPECT_EQ(1u, debug_->CheckAll());
  // Repair so Free doesn't double-report in teardown accounting.
  p[8] = MemDebug::kFencePattern;
  debug_->Free(p);
}

TEST_F(MemDebugTest, DumpLeaksReportsLiveBlocks) {
  void* a = debug_->Alloc(10, "leak-a");
  void* b = debug_->Alloc(20, "leak-b");
  EXPECT_EQ(2u, debug_->DumpLeaks());
  EXPECT_TRUE(Saw(MemDebug::Fault::kLeak));
  EXPECT_EQ(2u, debug_->live_blocks());
  EXPECT_EQ(30u, debug_->live_bytes());
  debug_->Free(a);
  debug_->Free(b);
  EXPECT_EQ(0u, debug_->DumpLeaks());
}

TEST_F(MemDebugTest, AllocPoisonIsVisible) {
  auto* p = static_cast<uint8_t*>(debug_->Alloc(16, "poison"));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(MemDebug::kAllocPoison, p[i]);
  }
  debug_->Free(p);
}

TEST_F(MemDebugTest, QuarantineEventuallyReleases) {
  // More frees than the quarantine holds: old blocks get released to the
  // real allocator, and their final checks still pass.
  for (size_t i = 0; i < MemDebug::kQuarantineBlocks * 3; ++i) {
    void* p = debug_->Alloc(24, "churn");
    debug_->Free(p);
  }
  EXPECT_EQ(0u, debug_->faults_detected());
}

}  // namespace
}  // namespace oskit
