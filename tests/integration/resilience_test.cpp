// End-to-end resilience drills: every injected fault class must recover to
// a JSON export byte-identical to the uninjected run, at any thread count —
// the acceptance bar for the fault-injection harness. Lives in the parallel
// test binary so the tsan ctest label exercises the watchdog/cancellation
// machinery under the race detector.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/driver.h"
#include "experiments.h"
#include "fault/injector.h"

namespace vdbench::cli {
namespace {

namespace fs = std::filesystem;

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vdresilience_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    registry_ = bench::study_registry();
  }
  void TearDown() override {
    fault::Injector::global().disarm();
    fs::remove_all(dir_);
  }

  // e1 (cacheable, instant) + probe (non-cacheable 256-task parallel
  // checksum): between them they cross every fault point.
  DriverOptions drill_options(const std::string& tag, std::size_t threads) {
    DriverOptions options;
    options.experiments = "e1,probe";
    options.threads = threads;
    options.cache_dir = (dir_ / ("cache_" + tag)).string();
    options.json_out = (dir_ / (tag + ".json")).string();
    options.manifest_path.clear();
    options.artifact_dir = dir_.string();
    options.quiet = true;
    options.study_seed = 42;
    options.retries = 2;
    options.clock = [this] { return ++tick_; };
    return options;
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  fs::path dir_;
  ExperimentRegistry registry_;
  std::uint64_t tick_ = 0;
};

TEST_F(ResilienceTest, EveryFaultClassRecoversByteIdenticallyAtAnyThreadCount) {
  const struct {
    const char* tag;
    const char* spec;
    bool needs_warm_cache;  // read faults need an entry to read
  } kDrills[] = {
      {"write_enospc", "cache.write=io_error@e1:1", false},
      {"write_corrupt", "cache.write=corrupt@e1:1", false},
      {"read_throw", "cache.read=throw@e1:1", true},
      {"read_truncate", "cache.read=truncate@e1:1", true},
      {"body_throw", "experiment.body=throw@probe:1", false},
      {"task_throw", "executor.task=throw@17:1", false},
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string t = "t" + std::to_string(threads);
    const DriverOptions clean = drill_options("clean_" + t, threads);
    ASSERT_EQ(run_driver(registry_, clean, std::cout).exit_code, kExitOk);
    const std::string clean_export = slurp(clean.json_out);
    ASSERT_FALSE(clean_export.empty());

    for (const auto& drill : kDrills) {
      const std::string tag = std::string(drill.tag) + "_" + t;
      DriverOptions options = drill_options(tag, threads);
      if (drill.needs_warm_cache) {
        DriverOptions warm = options;
        warm.json_out.clear();
        ASSERT_EQ(run_driver(registry_, warm, std::cout).exit_code, kExitOk);
      }
      fault::Injector::global().arm(drill.spec);
      std::ostringstream out;
      const RunOutcome run = run_driver(registry_, options, out);
      fault::Injector::global().disarm();
      EXPECT_EQ(run.exit_code, kExitOk)
          << drill.spec << " threads=" << threads << "\n"
          << out.str();
      EXPECT_EQ(slurp(options.json_out), clean_export)
          << drill.spec << " threads=" << threads
          << ": recovered export differs from the clean run";
    }
  }
}

TEST_F(ResilienceTest, InjectedTimeoutIsCancelledClassifiedAndRetried) {
  DriverOptions options = drill_options("timeout", 4);
  options.timeout_sec = 0.5;
  options.retries = 1;
  const DriverOptions clean = drill_options("clean", 4);
  ASSERT_EQ(run_driver(registry_, clean, std::cout).exit_code, kExitOk);

  fault::Injector::global().arm("experiment.body=timeout@probe:1");
  std::ostringstream out;
  const RunOutcome run = run_driver(registry_, options, out);
  fault::Injector::global().disarm();
  ASSERT_EQ(run.exit_code, kExitOk) << out.str();
  ASSERT_EQ(run.experiments.size(), 2u);
  const ExperimentOutcome& probe = run.experiments[1];
  ASSERT_EQ(probe.attempts.size(), 2u);
  EXPECT_EQ(probe.attempts[0].result, "timeout");
  EXPECT_GE(probe.attempts[0].seconds, 0.5);  // held until the watchdog
  EXPECT_EQ(probe.attempts[1].result, "ok");
  EXPECT_EQ(slurp(options.json_out), slurp(clean.json_out));
}

TEST_F(ResilienceTest, KilledStudyResumesToCompletionWithFullHistory) {
  // Baseline: the clean study export.
  const DriverOptions clean = drill_options("clean", 4);
  ASSERT_EQ(run_driver(registry_, clean, std::cout).exit_code, kExitOk);

  // "Kill" the study: probe dies with no retries; the crash-safe manifest
  // keeps the record of what finished.
  DriverOptions first = drill_options("first", 4);
  first.retries = 0;
  first.manifest_path = (dir_ / "manifest.json").string();
  first.json_out.clear();
  fault::Injector::global().arm("experiment.body=throw@probe:1");
  std::ostringstream first_out;
  const RunOutcome killed = run_driver(registry_, first, first_out);
  fault::Injector::global().disarm();
  ASSERT_EQ(killed.exit_code, kExitPartial) << first_out.str();

  // Resume: e1 replays from the first run's cache, probe recomputes.
  DriverOptions second = drill_options("second", 4);
  second.cache_dir = first.cache_dir;
  second.resume_path = first.manifest_path;
  second.manifest_path = (dir_ / "manifest2.json").string();
  std::ostringstream second_out;
  const RunOutcome resumed = run_driver(registry_, second, second_out);
  ASSERT_EQ(resumed.exit_code, kExitOk) << second_out.str();
  ASSERT_EQ(resumed.experiments.size(), 2u);
  EXPECT_EQ(resumed.experiments[0].source,
            ExperimentOutcome::Source::kCacheHit);
  EXPECT_TRUE(resumed.experiments[0].resumed);

  // Both runs' attempts, each with its own timing, survive in the final
  // manifest: the injected failure (flagged prior) and this run's success.
  const ExperimentOutcome& probe = resumed.experiments[1];
  ASSERT_EQ(probe.attempts.size(), 2u);
  EXPECT_TRUE(probe.attempts[0].prior);
  EXPECT_EQ(probe.attempts[0].result, "injected_fault");
  EXPECT_GE(probe.attempts[0].seconds, 0.0);
  EXPECT_FALSE(probe.attempts[1].prior);
  EXPECT_EQ(probe.attempts[1].result, "ok");
  const std::string manifest = slurp(dir_ / "manifest2.json");
  EXPECT_NE(manifest.find("\"prior\":true"), std::string::npos);
  EXPECT_NE(manifest.find("\"result\":\"injected_fault\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"complete\":true"), std::string::npos);

  // And the resumed study's export is byte-identical to the clean run.
  EXPECT_EQ(slurp(second.json_out), slurp(clean.json_out));
}

}  // namespace
}  // namespace vdbench::cli
