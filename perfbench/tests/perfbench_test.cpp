// Unit tests of the harness's own logic: the percentile rule, seeded
// inputs, span self time, and every output check firing on a corrupted
// output. Build and run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "checks.h"
#include "json.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(PercentileRule, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(PercentileRule, NeedsTenSamplesBeyondP95) {
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);

  const std::optional<double> supported = supported_percentile(ramp(200), 0.95);
  ASSERT_TRUE(supported.has_value());
  EXPECT_DOUBLE_EQ(*supported, 190.0);  // nearest rank: the 190th smallest
  EXPECT_FALSE(supported_percentile(ramp(199), 0.95).has_value());
  EXPECT_FALSE(supported_percentile(ramp(12), 0.95).has_value());
  EXPECT_FALSE(supported_percentile({}, 0.95).has_value());
}

TEST(ArrivalSchedule, SameSeedSameSchedule) {
  const auto a = arrival_schedule(42, 20.0, 300, 10);
  const auto b = arrival_schedule(42, 20.0, 300, 10);
  ASSERT_EQ(a.size(), 300u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].refresh, b[i].refresh);
  }
  const auto c = arrival_schedule(43, 20.0, 300, 10);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs |= a[i].due_s != c[i].due_s;
  EXPECT_TRUE(differs);
}

TEST(ArrivalSchedule, PoissonRateAndOneRefreshPerTen) {
  const auto schedule = arrival_schedule(7, 20.0, 2000, 10);
  for (std::size_t i = 1; i < schedule.size(); ++i)
    EXPECT_GT(schedule[i].due_s, schedule[i - 1].due_s);
  // 2000 arrivals at 20/s span about 100 s (sd of the sum ~2.2 s).
  EXPECT_NEAR(schedule.back().due_s, 100.0, 10.0);
  for (std::size_t block = 0; block < 200; ++block) {
    int refreshes = 0;
    for (std::size_t i = block * 10; i < block * 10 + 10; ++i)
      refreshes += schedule[i].refresh ? 1 : 0;
    EXPECT_EQ(refreshes, 1) << "block " << block;
  }
}

TEST(RotationMix, EveryRunScoresWholeRotations) {
  RotationCheck whole;
  for (int rotation = 0; rotation < 3; ++rotation)
    for (std::size_t tool = 0; tool < 6; ++tool)
      EXPECT_EQ(whole.check(tool, "export " + std::to_string(tool)), "");
  EXPECT_EQ(whole.whole_rotations(6), "");

  RotationCheck partial;  // a run cut off mid-rotation
  for (std::size_t tool = 0; tool < 6; ++tool) (void)partial.check(tool, "x");
  for (std::size_t tool = 0; tool < 2; ++tool) (void)partial.check(tool, "x");
  EXPECT_NE(partial.whole_rotations(6), "");

  RotationCheck missing;  // a tool never scored
  for (std::size_t tool = 0; tool < 5; ++tool) (void)missing.check(tool, "x");
  EXPECT_NE(missing.whole_rotations(6), "");
  EXPECT_NE(RotationCheck().whole_rotations(6), "");
}

TEST(DeriveSeed, StreamsAreIndependent) {
  EXPECT_EQ(derive_seed(1, "stream"), derive_seed(1, "stream"));
  EXPECT_NE(derive_seed(1, "stream"), derive_seed(1, "intake"));
  EXPECT_NE(derive_seed(1, "stream"), derive_seed(2, "stream"));
}

Trace::Record record(std::string name, double start_ms, double end_ms, int parent) {
  const Trace::Clock::time_point origin{};
  Trace::Record r;
  r.name = std::move(name);
  r.start = origin + std::chrono::microseconds(static_cast<long>(start_ms * 1000));
  r.end = origin + std::chrono::microseconds(static_cast<long>(end_ms * 1000));
  r.parent = parent;
  return r;
}

TEST(SpanSelfTime, SubtractsChildrenButNotGrandchildren) {
  Trace trace;
  const auto op = static_cast<int>(trace.add(record("op", 0, 100, -1)));
  const auto a = static_cast<int>(trace.add(record("a", 10, 30, op)));
  trace.add(record("a.inner", 12, 28, a));
  trace.add(record("b", 40, 70, op));
  EXPECT_NEAR(trace.self_seconds(op), 0.050, 1e-9);  // 100 - 20 - 30
  EXPECT_NEAR(trace.self_seconds(a), 0.004, 1e-9);   // 20 - 16
  EXPECT_NEAR(trace.self_seconds(3), 0.030, 1e-9);   // leaf
}

TEST(SpanSelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  Trace trace;
  const auto op = static_cast<int>(trace.add(record("op", 0, 100, -1)));
  trace.add(record("x", 10, 50, op));
  trace.add(record("y", 30, 60, op));   // overlaps x by 20
  trace.add(record("z", 90, 120, op));  // runs past the parent's end
  EXPECT_NEAR(trace.self_seconds(static_cast<std::size_t>(op)), 0.040, 1e-9);
}

TEST(SpanSelfTime, LiveSpansNestAndShareTheOpId) {
  Trace trace;
  const std::uint64_t id = trace.begin_op();
  {
    auto outer = trace.span("outer");
    { auto inner = trace.span("inner"); }
  }
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[0].parent, -1);
  EXPECT_EQ(trace.records()[1].parent, 0);
  EXPECT_EQ(trace.records()[0].op, id);
  EXPECT_EQ(trace.records()[1].op, id);
  EXPECT_LE(trace.self_seconds(0), Trace::seconds(trace.records()[0]));
  const std::string json = trace.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"self_us\""), std::string::npos);
}

TEST(OutputChecks, IdenticalExportsPassAndAFlippedByteFails) {
  const std::string reference = R"({"experiments":[{"id":"e1","text":"ok"}]})";
  EXPECT_EQ(check_identical("export", reference, reference), "");
  std::string corrupted = reference;
  corrupted[20] ^= 0x01;
  const std::string failure = check_identical("export", reference, corrupted);
  EXPECT_NE(failure.find("differs at byte 20"), std::string::npos) << failure;
  EXPECT_NE(check_identical("export", reference, reference.substr(0, 10)), "");
  EXPECT_NE(check_identical("export", "", ""), "");  // no reference, no pass
}

TEST(OutputChecks, ColdStudyExportVsWarmReplay) {
  const std::string cold = R"({"run":"cold","payload":[1,2,3]})";
  std::string replay = cold;
  replay.back() = ']';
  EXPECT_NE(check_identical("cold_study export vs warm replay", cold, replay), "");
}

TEST(OutputChecks, WarmSessionExportVsSetupSession) {
  const std::string setup = std::string(4096, 'x');
  std::string session = setup;
  session[4095] = 'y';
  EXPECT_EQ(check_identical("session export", setup, setup), "");
  EXPECT_NE(check_identical("session export", setup, session), "");
}

TEST(OutputChecks, IntakeExportMustRepeatAcrossRotations) {
  RotationCheck check;
  EXPECT_EQ(check.check(0, "tool0"), "");
  EXPECT_EQ(check.check(1, "tool1"), "");
  EXPECT_EQ(check.check(0, "tool0"), "");
  EXPECT_NE(check.check(1, "tool1-corrupted"), "");
  EXPECT_NE(check.check(2, ""), "");  // an empty first export is a failure
}

TEST(OutputChecks, StreamReplayCountsMustEqualRecord) {
  const StreamCounts recorded{10, 20, 30, 40, 100, 2};
  EXPECT_EQ(check_stream_counts(recorded, recorded, 100), "");
  StreamCounts replayed = recorded;
  replayed.fn += 1;
  EXPECT_NE(check_stream_counts(recorded, replayed, 100), "");
  replayed = recorded;
  replayed.chunks = 3;
  EXPECT_NE(check_stream_counts(recorded, replayed, 100), "");
  EXPECT_NE(check_stream_counts(recorded, recorded, 101), "");  // short stream
}

TEST(OpLedger, CountsFailuresAndKeepsTheirReasons) {
  OpLedger ledger;
  ledger.record("");
  ledger.record("first");
  ledger.record("");
  ledger.record("second");
  EXPECT_EQ(ledger.attempted(), 4u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.reasons(), "first; second");
}

TEST(Json, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(format_number(1.2034), "1.2034");
  EXPECT_EQ(format_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_number(std::nan("")), "null");
  Json json;
  json.begin_object().key("a").value(std::uint64_t{1}).key("b").begin_array()
      .value("x\"y").value(true).end_array().end_object();
  EXPECT_EQ(json.str(), R"({"a":1,"b":["x\"y",true]})");
}

}  // namespace
}  // namespace perfbench
