#include "stats/timer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "obs/clock.h"

namespace vdbench::stats {
namespace {

TEST(StageTimerTest, RecordAccumulatesByLabel) {
  StageTimer timer;
  timer.record("load", 1.0);
  timer.record("compute", 2.0);
  timer.record("load", 0.5);
  ASSERT_EQ(timer.stages().size(), 2u);
  EXPECT_EQ(timer.stages()[0].label, "load");
  EXPECT_DOUBLE_EQ(timer.stages()[0].seconds, 1.5);
  EXPECT_EQ(timer.stages()[0].calls, 2u);
  EXPECT_EQ(timer.stages()[1].label, "compute");
}

TEST(StageTimerTest, RecordRejectsNegativeDuration) {
  StageTimer timer;
  EXPECT_THROW(timer.record("x", -1.0), std::invalid_argument);
}

TEST(StageTimerTest, ScopeRecordsElapsedTime) {
  StageTimer timer;
  const std::int64_t before_ns = obs::now_ns();
  for (int call = 0; call < 2; ++call) {
    // vdlint:allow(vdl-phase-literal)
    const auto scope = timer.scope("work");
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
  }
  const double bracket = static_cast<double>(obs::now_ns() - before_ns) * 1e-9;
  ASSERT_EQ(timer.stages().size(), 1u);
  EXPECT_EQ(timer.stages()[0].label, "work");
  EXPECT_EQ(timer.stages()[0].calls, 2u);
  // Both scopes read obs::now_ns(), between the two readings around them.
  EXPECT_GT(timer.stages()[0].seconds, 0.0);
  EXPECT_LE(timer.stages()[0].seconds, bracket);
}

TEST(StageTimerTest, MovedFromScopeDoesNotDoubleRecord) {
  StageTimer timer;
  {
    // vdlint:allow(vdl-phase-literal)
    auto outer = [&] { return timer.scope("phase"); }();
    (void)outer;
  }
  ASSERT_EQ(timer.stages().size(), 1u);
  EXPECT_EQ(timer.stages()[0].calls, 1u);
}

TEST(StageTimerTest, PreservesFirstRecordedOrder) {
  StageTimer timer;
  timer.record("c", 0.1);
  timer.record("a", 0.1);
  timer.record("b", 0.1);
  timer.record("a", 0.1);
  ASSERT_EQ(timer.stages().size(), 3u);
  EXPECT_EQ(timer.stages()[0].label, "c");
  EXPECT_EQ(timer.stages()[1].label, "a");
  EXPECT_EQ(timer.stages()[2].label, "b");
}

}  // namespace
}  // namespace vdbench::stats
