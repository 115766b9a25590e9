// Unit tests for the runtime-metrics registry: counter/gauge semantics,
// snapshot deltas, and the naming contract the exporters (manifest
// telemetry, trace args) rely on.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace vdbench::obs {
namespace {

TEST(RegistryTest, CountersAccumulateAndSnapshotDeltas) {
  Registry registry;
  EXPECT_EQ(registry.value(Counter::kCacheHits), 0u);
  registry.add(Counter::kCacheHits);
  registry.add(Counter::kCacheHits, 4);
  registry.add(Counter::kBytesWritten, 1000);
  EXPECT_EQ(registry.value(Counter::kCacheHits), 5u);
  EXPECT_EQ(registry.value(Counter::kBytesWritten), 1000u);

  const CounterSnapshot before = registry.snapshot();
  registry.add(Counter::kCacheHits, 2);
  registry.add(Counter::kRetries, 3);
  const CounterSnapshot delta = registry.snapshot().since(before);
  EXPECT_EQ(delta[Counter::kCacheHits], 2u);
  EXPECT_EQ(delta[Counter::kRetries], 3u);
  EXPECT_EQ(delta[Counter::kBytesWritten], 0u);
}

TEST(RegistryTest, GaugesAreLastWriteWins) {
  Registry registry;
  registry.set(Gauge::kThreads, 8);
  registry.set(Gauge::kThreads, 3);
  EXPECT_EQ(registry.value(Gauge::kThreads), 3u);
  EXPECT_EQ(registry.value(Gauge::kCacheEntries), 0u);
}

TEST(RegistryTest, ResetZeroesEveryInstrument) {
  Registry registry;
  registry.add(Counter::kFaultFires, 9);
  registry.set(Gauge::kCacheBytes, 77);
  registry.reset();
  EXPECT_EQ(registry.value(Counter::kFaultFires), 0u);
  EXPECT_EQ(registry.value(Gauge::kCacheBytes), 0u);
}

TEST(RegistryTest, InstrumentNamesAreUniqueDottedAndStable) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string_view name = counter_name(static_cast<Counter>(i));
    ASSERT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(std::string(name)).second)
        << "duplicate counter name " << name;
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    const std::string_view name = gauge_name(static_cast<Gauge>(i));
    ASSERT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(std::string(name)).second)
        << "duplicate gauge name " << name;
  }
  // Spot-check the spelling the manifest telemetry block exports.
  EXPECT_EQ(counter_name(Counter::kCacheHits), "cache.hits");
  EXPECT_EQ(counter_name(Counter::kTraceEvents), "trace.events");
  EXPECT_EQ(gauge_name(Gauge::kThreads), "threads");
}

TEST(RegistryTest, GlobalShorthandHitsTheGlobalRegistry) {
  const std::uint64_t before =
      Registry::global().value(Counter::kManifestWrites);
  count(Counter::kManifestWrites, 2);
  EXPECT_EQ(Registry::global().value(Counter::kManifestWrites), before + 2);
}

}  // namespace
}  // namespace vdbench::obs
