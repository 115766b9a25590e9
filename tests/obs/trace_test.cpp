// Tests for the tracing layer: event capture and JSON schema, multi-thread
// tid assignment, JSON escaping, timed spans' shared clock readings, and —
// the layer's load-bearing promise — that a disarmed span site records
// nothing and allocates nothing.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "report/json_reader.h"

// Global-allocation counter for the zero-overhead assertion. Sanitizer
// builds keep the default operator new (ASan/TSan interpose their own and
// must see every call), so the allocation half of the test is compiled out
// there; the trace.events half still runs.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VDBENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VDBENCH_COUNT_ALLOCS 0
#else
#define VDBENCH_COUNT_ALLOCS 1
#endif
#else
#define VDBENCH_COUNT_ALLOCS 1
#endif

#if VDBENCH_COUNT_ALLOCS
// GCC pairs inlined default-new call sites with the replacement delete and
// warns; the replacement pair below is malloc/free-consistent throughout.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace vdbench::obs {
namespace {

TEST(SpanOverheadTest, DisarmedSpanSiteRecordsNothingAndAllocatesNothing) {
  ASSERT_FALSE(Tracer::global().active());
  const std::uint64_t events_before =
      Registry::global().value(Counter::kTraceEvents);
#if VDBENCH_COUNT_ALLOCS
  const std::uint64_t allocs_before =
      g_allocation_count.load(std::memory_order_relaxed);
#endif
  for (int i = 0; i < 1000; ++i) {
    const Span span("executor.task");
    instant("fault.fire", "cache.read=io_error@probe");
  }
#if VDBENCH_COUNT_ALLOCS
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed),
            allocs_before)
      << "disarmed span sites must not allocate";
#endif
  EXPECT_EQ(Registry::global().value(Counter::kTraceEvents), events_before)
      << "disarmed span sites must not record events";
}

TEST(TracerTest, CapturesBalancedSpansAndInstants) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  {
    const Span outer("driver.experiment", "t1");
    const Span inner("executor.task");
    instant("fault.fire", "executor.task=throw@5");
  }
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), 5u);  // 2 B + 2 E + 1 instant

  const std::string json = tracer.render_json();
  const std::optional<report::JsonDocument> parsed = report::parse_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const report::JsonValue* events = parsed->root().member("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->as_array().has_value());
  ASSERT_EQ(events->as_array()->size(), 5u);

  int depth = 0;
  std::set<std::string> names;
  for (const report::JsonValue& event : *events->as_array()) {
    const report::JsonValue* ph = event.member("ph");
    const report::JsonValue* name = event.member("name");
    const report::JsonValue* ts = event.member("ts");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ph->as_string().has_value());
    ASSERT_TRUE(name->as_string().has_value());
    ASSERT_TRUE(ts->as_number().has_value());
    EXPECT_GE(*ts->as_number(), 0.0);
    names.emplace(*name->as_string());
    const std::string_view phase = *ph->as_string();
    if (phase == "B") ++depth;
    if (phase == "E") --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_TRUE(names.count("driver.experiment"));
  EXPECT_TRUE(names.count("executor.task"));
  EXPECT_TRUE(names.count("fault.fire"));

  // The instant carries the Perfetto thread scope marker.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(TracerTest, ThreadsGetDistinctTidsAndStartIsFresh) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  { const Span span("executor.task"); }
  std::thread worker([] { const Span span("executor.task"); });
  worker.join();
  tracer.stop();
  ASSERT_EQ(tracer.event_count(), 4u);

  const std::string json = tracer.render_json();
  const std::optional<report::JsonDocument> parsed = report::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  std::set<double> tids;
  for (const report::JsonValue& event :
       *parsed->root().member("traceEvents")->as_array()) {
    ASSERT_TRUE(event.member("tid")->as_number().has_value());
    tids.insert(*event.member("tid")->as_number());
  }
  EXPECT_EQ(tids.size(), 2u) << "each thread gets its own tid";

  // start() resets the buffers: a fresh session begins empty.
  tracer.start();
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, EscapesSpanDetailsIntoValidJson) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  { const Span span("driver.experiment", "quote\" backslash\\ newline\n"); }
  tracer.stop();
  const std::string json = tracer.render_json();
  const std::optional<report::JsonDocument> parsed = report::parse_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const report::JsonArray events =
      *parsed->root().member("traceEvents")->as_array();
  ASSERT_FALSE(events.empty());
  const report::JsonValue* args = events.front().member("args");
  ASSERT_NE(args, nullptr);
  const report::JsonValue* detail = args->member("detail");
  ASSERT_NE(detail, nullptr);
  ASSERT_TRUE(detail->as_string().has_value());
  EXPECT_EQ(*detail->as_string(), "quote\" backslash\\ newline\n");
}

TEST(TracerTest, TraceEventsCounterTracksRecordedEvents) {
  const std::uint64_t before =
      Registry::global().value(Counter::kTraceEvents);
  Tracer& tracer = Tracer::global();
  tracer.start();
  { const Span span("executor.task"); }
  instant("executor.cancel");
  tracer.stop();
  EXPECT_EQ(Registry::global().value(Counter::kTraceEvents), before + 3);
}

TEST(TracerTest, TimedSpanWritesItsOwnReadingsIntoItsEvents) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  double seconds = 0.0;
  {
    TimedSpan span("driver.attempt", "t1");
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
    seconds = span.stop();
  }
  tracer.stop();
  ASSERT_EQ(tracer.event_count(), 2u) << "stop() ends the span exactly once";

  const std::string json = tracer.render_json();
  const std::optional<report::JsonDocument> parsed = report::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  const report::JsonArray events =
      *parsed->root().member("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(*events[0].member("ph")->as_string(), "B");
  EXPECT_EQ(*events[1].member("ph")->as_string(), "E");
  const double traced_us = *events[1].member("ts")->as_number() -
                           *events[0].member("ts")->as_number();
  // Both events carry the span's own readings, each truncated to whole
  // microseconds, so they differ from stop()'s result by less than 1 µs.
  EXPECT_GT(seconds, 0.0);
  EXPECT_LT(std::abs(seconds * 1e6 - traced_us), 1.0);
}

}  // namespace
}  // namespace vdbench::obs
