// Driver-level drills for the streaming pipeline (E18): injected
// stream.produce / stream.consume faults must be retried by the supervisor
// and recover to a JSON export byte-identical to the clean run; a recorded
// report log must replay byte-identically at any thread count; a corrupt
// replay log must fail the experiment loudly, never yield a short stream.
// Lives in the parallel test binary so the producer thread + cancellation
// machinery runs under the tsan ctest label.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/driver.h"
#include "experiments.h"
#include "fault/injector.h"
#include "stream/pipeline.h"

namespace vdbench::cli {
namespace {

namespace fs = std::filesystem;

class StreamResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vdstream_resilience_test_" +
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

  DriverOptions drill_options(const std::string& tag, std::size_t threads) {
    DriverOptions options;
    options.experiments = "e18";
    options.threads = threads;
    options.cache_dir = (dir_ / ("cache_" + tag)).string();
    options.json_out = (dir_ / (tag + ".json")).string();
    options.manifest_path.clear();
    options.artifact_dir = (dir_ / ("artifacts_" + tag)).string();
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

TEST_F(StreamResilienceTest, StreamFaultsRecoverByteIdenticallyUnderRetry) {
  const struct {
    const char* tag;
    const char* spec;
  } kDrills[] = {
      {"produce_throw", "stream.produce=throw@5:1"},
      {"produce_enospc", "stream.produce=io_error@2:1"},
      {"consume_throw", "stream.consume=throw@3:1"},
      {"consume_corrupt", "stream.consume=corrupt@7:1"},
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
      fault::Injector::global().arm(drill.spec);
      std::ostringstream out;
      const RunOutcome run = run_driver(registry_, options, out);
      fault::Injector::global().disarm();
      ASSERT_EQ(run.exit_code, kExitOk)
          << drill.spec << " threads=" << threads << "\n"
          << out.str();
      ASSERT_EQ(run.experiments.size(), 1u);
      ASSERT_GE(run.experiments[0].attempts.size(), 2u) << drill.spec;
      EXPECT_EQ(run.experiments[0].attempts[0].result, "injected_fault");
      EXPECT_EQ(run.experiments[0].attempts.back().result, "ok");
      EXPECT_EQ(slurp(options.json_out), clean_export)
          << drill.spec << " threads=" << threads
          << ": recovered export differs from the clean run";
    }
  }
}

// E18's stream cut to 10^5 sites, the size StreamPipelineTest uses, as a
// streaming experiment of its own: its clean run fits the stall drill's
// 0.5 s budget with room to spare, where full-size E18 (10^6 sites) takes
// about that long on its own under ThreadSanitizer.
ExperimentRegistry small_stream_registry() {
  ExperimentRegistry registry;
  registry.add({"s5", "E18's stream at 10^5 sites", "s5{sites=100000}", true,
                [](ExperimentContext& ctx) {
                  stream::StreamSpec spec = bench::e18_stream_spec();
                  spec.total_sites = 100'000;
                  const stream::StreamResult result =
                      stream::stream_evaluate(spec);
                  ctx.out << result.chunks << " chunks: "
                          << result.cm.to_string() << "\n";
                },
                /*streaming=*/true});
  return registry;
}

TEST_F(StreamResilienceTest, StallInProducerIsWatchdogCancelledAndRetried) {
  // A stream.produce timeout stalls the producer thread; the consumer
  // blocks on the queue, the attempt's deadline passes, and both sides
  // unwind through the cooperative cancellation token. The retry then runs
  // clean and the export matches the unfaulted run.
  const ExperimentRegistry registry = small_stream_registry();
  DriverOptions clean = drill_options("clean", 4);
  clean.experiments = "s5";
  ASSERT_EQ(run_driver(registry, clean, std::cout).exit_code, kExitOk);

  DriverOptions options = drill_options("stall", 4);
  options.experiments = "s5";
  options.timeout_sec = 0.5;
  options.retries = 1;
  fault::Injector::global().arm("stream.produce=timeout@4:1");
  std::ostringstream out;
  const RunOutcome run = run_driver(registry, options, out);
  fault::Injector::global().disarm();
  ASSERT_EQ(run.exit_code, kExitOk) << out.str();
  ASSERT_EQ(run.experiments.size(), 1u);
  const ExperimentOutcome& s5 = run.experiments[0];
  ASSERT_EQ(s5.attempts.size(), 2u);
  EXPECT_EQ(s5.attempts[0].result, "timeout");
  EXPECT_GE(s5.attempts[0].seconds, 0.5);  // held until the deadline
  EXPECT_EQ(s5.attempts[1].result, "ok");
  EXPECT_EQ(slurp(options.json_out), slurp(clean.json_out));
}

TEST_F(StreamResilienceTest, RecordedLogReplaysByteIdenticallyAtAnyThreads) {
  // Record once, replay at several thread counts: every export must match
  // the recording run byte for byte — the CI determinism matrix in
  // miniature.
  DriverOptions record = drill_options("record", 1);
  record.record_log = (dir_ / "e18.vdrlog").string();
  std::ostringstream record_out;
  ASSERT_EQ(run_driver(registry_, record, record_out).exit_code, kExitOk)
      << record_out.str();
  const std::string recorded_export = slurp(record.json_out);
  ASSERT_FALSE(recorded_export.empty());
  ASSERT_GT(fs::file_size(record.record_log), 16u);  // header + frames

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    DriverOptions replay =
        drill_options("replay_t" + std::to_string(threads), threads);
    replay.replay_log = record.record_log;
    std::ostringstream out;
    ASSERT_EQ(run_driver(registry_, replay, out).exit_code, kExitOk)
        << out.str();
    EXPECT_EQ(slurp(replay.json_out), recorded_export)
        << "replay at threads=" << threads
        << " diverged from the recording run";
  }
}

TEST_F(StreamResilienceTest, CorruptReplayLogFailsLoudlyNotShort) {
  DriverOptions record = drill_options("record", 1);
  record.record_log = (dir_ / "e18.vdrlog").string();
  ASSERT_EQ(run_driver(registry_, record, std::cout).exit_code, kExitOk);

  // Chop the tail: a silent reader would fold a short stream and export
  // plausible-but-wrong numbers. The driver must fail the experiment with
  // the typed corruption message instead.
  const std::string bytes = slurp(record.record_log);
  const fs::path torn = dir_ / "torn.vdrlog";
  {
    std::ofstream out(torn, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  DriverOptions replay = drill_options("replay_torn", 1);
  replay.replay_log = torn.string();
  replay.retries = 0;
  std::ostringstream out;
  const RunOutcome run = run_driver(registry_, replay, out);
  EXPECT_NE(run.exit_code, kExitOk);
  EXPECT_NE(out.str().find("report log corrupt"), std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace vdbench::cli
