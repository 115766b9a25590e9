#include "cli/driver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/experiment.h"
#include "core/study.h"
#include "experiments.h"
#include "fault/injector.h"
#include "obs/names.h"
#include "report/json_reader.h"
#include "stats/parallel.h"

namespace vdbench::cli {
namespace {

namespace fs = std::filesystem;

// A tiny deterministic registry: two cacheable experiments (one with an
// artifact) and one non-cacheable.
ExperimentRegistry toy_registry() {
  ExperimentRegistry registry;
  registry.add({"t1", "writes a line", "toy{n=1}", true,
                [](ExperimentContext& ctx) {
                  // vdlint:allow(vdl-phase-literal)
                  const auto scope = ctx.timer.scope("compute");
                  ctx.out << "t1 report line\n";
                }});
  registry.add({"t2", "writes an artifact", "toy{n=2}", true,
                [](ExperimentContext& ctx) {
                  ctx.out << "t2 report line\n";
                  ctx.add_artifact("t2_data.json", "{\"v\":2}\n");
                }});
  registry.add({"t3", "non-cacheable", "toy{n=3}", false,
                [](ExperimentContext& ctx) { ctx.out << "t3 fresh\n"; }});
  return registry;
}

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vddriver_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::Injector::global().disarm();
    fs::remove_all(dir_);
  }

  DriverOptions base_options() {
    DriverOptions options;
    options.cache_dir = (dir_ / "cache").string();
    options.manifest_path = (dir_ / "manifest.json").string();
    options.artifact_dir = dir_.string();
    options.threads = 1;
    options.study_seed = 7;
    options.clock = [this] { return ++tick_; };
    return options;
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  /// The manifest's summary status and exit code as "status/exit_code";
  /// empty when the summary carries neither (a snapshot), "missing"
  /// without a manifest.
  std::string manifest_verdict() const {
    if (!fs::exists(dir_ / "manifest.json")) return "missing";
    const std::string text = slurp(dir_ / "manifest.json");
    const std::optional<report::JsonDocument> doc = report::parse_json(text);
    if (!doc) return "unparseable";
    const report::JsonValue* summary = doc->root().member("summary");
    const report::JsonValue* status = summary->member("status");
    const report::JsonValue* exit_code = summary->member("exit_code");
    if (status == nullptr && exit_code == nullptr) return "";
    if (status == nullptr || exit_code == nullptr) return "half";
    return std::string(*status->as_string()) + "/" +
           std::to_string(static_cast<int>(*exit_code->as_number()));
  }

  fs::path dir_;
  std::uint64_t tick_ = 0;
};

TEST(ExperimentRegistryTest, RejectsDuplicateAndEmptyIds) {
  ExperimentRegistry registry;
  registry.add({"x", "", "", true, [](ExperimentContext&) {}});
  EXPECT_THROW(registry.add({"x", "", "", true, [](ExperimentContext&) {}}),
               std::logic_error);
  EXPECT_THROW(registry.add({"", "", "", true, [](ExperimentContext&) {}}),
               std::logic_error);
}

TEST(ExperimentRegistryTest, SelectAllMeansEveryCacheableExperiment) {
  const ExperimentRegistry registry = toy_registry();
  std::vector<std::string> unknown;
  const auto all = registry.select("all", unknown);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->id, "t1");
  EXPECT_EQ(all[1]->id, "t2");
  EXPECT_TRUE(unknown.empty());
}

TEST(ExperimentRegistryTest, SelectDeduplicatesAndKeepsRegistryOrder) {
  const ExperimentRegistry registry = toy_registry();
  std::vector<std::string> unknown;
  const auto picked = registry.select("t3,t1,t3,e99", unknown);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0]->id, "t1");  // registry order, not request order
  EXPECT_EQ(picked[1]->id, "t3");  // explicit naming admits non-cacheable
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "e99");
}

TEST(ParseArgsTest, ParsesBothFlagForms) {
  const char* argv[] = {"vdbench",           "--experiments", "e1,e2",
                        "--threads=4",       "--no-cache",    "--json-out",
                        "/tmp/out.json",     "--refresh",     "--quiet",
                        "--min-hit-rate=0.9"};
  std::ostringstream err;
  bool help = false;
  const auto options =
      parse_args(static_cast<int>(std::size(argv)), argv, err, &help);
  ASSERT_TRUE(options.has_value()) << err.str();
  EXPECT_EQ(options->experiments, "e1,e2");
  EXPECT_EQ(options->threads, 4u);
  EXPECT_FALSE(options->use_cache);
  EXPECT_EQ(options->json_out, "/tmp/out.json");
  EXPECT_TRUE(options->refresh);
  EXPECT_TRUE(options->quiet);
  EXPECT_DOUBLE_EQ(options->min_hit_rate, 0.9);
  EXPECT_FALSE(help);
}

TEST(ParseArgsTest, RejectsUnknownFlagsAndBadValues) {
  std::ostringstream err;
  bool help = false;
  const char* bad_flag[] = {"vdbench", "--bogus"};
  EXPECT_FALSE(parse_args(2, bad_flag, err, &help).has_value());
  const char* missing_value[] = {"vdbench", "--experiments"};
  EXPECT_FALSE(parse_args(2, missing_value, err, &help).has_value());
  const char* bad_rate[] = {"vdbench", "--min-hit-rate=1.5"};
  EXPECT_FALSE(parse_args(2, bad_rate, err, &help).has_value());
  // Numbers are digits only: no trailing junk, sign, whitespace, overflow
  // or non-finite value gets through (a NaN rate would turn the gate off).
  for (const char* bad : {"--threads=3abc", "--threads= 3", "--threads=+3",
                          "--threads=257", "--cache-max-bytes=-1",
                          "--cache-max-bytes=18446744073709551616",
                          "--min-hit-rate=nan", "--min-hit-rate=-0"}) {
    const char* argv[] = {"vdbench", bad};
    EXPECT_FALSE(parse_args(2, argv, err, &help).has_value()) << bad;
  }
  EXPECT_FALSE(help);
  const char* help_flag[] = {"vdbench", "--help"};
  EXPECT_FALSE(parse_args(2, help_flag, err, &help).has_value());
  EXPECT_TRUE(help);
}

TEST(PayloadTest, RoundTripsTextAndArtifacts) {
  const Experiment experiment{"t2", "writes an artifact", "toy{n=2}", true,
                              nullptr};
  const std::vector<Artifact> artifacts = {{"a.json", "{\"k\":[1,2]}\n"}};
  const std::string payload = build_payload(
      experiment, 7, "report text\nwith \"quotes\"\n", artifacts);
  const auto decoded = decode_payload(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->text, "report text\nwith \"quotes\"\n");
  ASSERT_EQ(decoded->artifacts.size(), 1u);
  EXPECT_EQ(decoded->artifacts[0].name, "a.json");
  EXPECT_EQ(decoded->artifacts[0].content, "{\"k\":[1,2]}\n");
}

TEST(PayloadTest, RejectsStructurallyInvalidPayloads) {
  EXPECT_FALSE(decode_payload("not json").has_value());
  EXPECT_FALSE(decode_payload("{}").has_value());
  EXPECT_FALSE(decode_payload("{\"text\":42}").has_value());
}

TEST_F(DriverTest, ColdRunMissesThenWarmRunHitsByteIdentically) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.experiments = "all";

  std::ostringstream cold;
  const RunOutcome first = run_driver(registry, options, cold);
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.misses, 2u);
  EXPECT_NE(cold.str().find("t1 report line"), std::string::npos);

  // The artifact landed on disk.
  EXPECT_EQ(slurp(dir_ / "t2_data.json"), "{\"v\":2}\n");
  fs::remove(dir_ / "t2_data.json");

  std::ostringstream warm;
  const RunOutcome second = run_driver(registry, options, warm);
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.hits, 2u);
  EXPECT_EQ(second.misses, 0u);
  EXPECT_DOUBLE_EQ(second.hit_rate, 1.0);
  ASSERT_EQ(second.experiments.size(), 2u);
  EXPECT_EQ(second.experiments[0].source,
            ExperimentOutcome::Source::kCacheHit);
  // Same report text replays from the cache...
  EXPECT_NE(warm.str().find("t1 report line"), std::string::npos);
  // ...and the artifact is rewritten without recomputation.
  EXPECT_EQ(slurp(dir_ / "t2_data.json"), "{\"v\":2}\n");
  // The keys are stable across runs.
  EXPECT_EQ(first.experiments[0].key_hex, second.experiments[0].key_hex);
}

TEST_F(DriverTest, ArtifactLandsInADirectoryThatDoesNotExistYet) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.experiments = "t2";
  options.artifact_dir = (dir_ / "not" / "yet").string();
  std::ostringstream out;
  EXPECT_EQ(run_driver(registry, options, out).exit_code, 0) << out.str();
  EXPECT_EQ(slurp(dir_ / "not" / "yet" / "t2_data.json"), "{\"v\":2}\n");
  EXPECT_NE(out.str().find("wrote artifact"), std::string::npos) << out.str();
}

TEST_F(DriverTest, JsonExportIsByteIdenticalAcrossColdAndWarmRuns) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.quiet = true;

  options.json_out = (dir_ / "run1.json").string();
  ASSERT_EQ(run_driver(registry, options, std::cout).exit_code, 0);
  options.json_out = (dir_ / "run2.json").string();
  ASSERT_EQ(run_driver(registry, options, std::cout).exit_code, 0);

  const std::string run1 = slurp(dir_ / "run1.json");
  const std::string run2 = slurp(dir_ / "run2.json");
  ASSERT_FALSE(run1.empty());
  EXPECT_EQ(run1, run2);
}

TEST_F(DriverTest, RefreshRecomputesAndOverwrites) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.quiet = true;
  ASSERT_EQ(run_driver(registry, options, std::cout).misses, 2u);

  options.refresh = true;
  const RunOutcome refreshed = run_driver(registry, options, std::cout);
  EXPECT_EQ(refreshed.hits, 0u);
  EXPECT_EQ(refreshed.misses, 2u);

  // The refreshed entries serve hits again afterwards.
  options.refresh = false;
  EXPECT_EQ(run_driver(registry, options, std::cout).hits, 2u);
}

TEST_F(DriverTest, NoCacheBypassesReadsAndWrites) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.quiet = true;
  options.use_cache = false;
  const RunOutcome run = run_driver(registry, options, std::cout);
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.experiments.size(), 2u);
  EXPECT_EQ(run.experiments[0].source, ExperimentOutcome::Source::kBypass);
  EXPECT_FALSE(fs::exists(dir_ / "cache"));
}

TEST_F(DriverTest, UnknownExperimentIdFailsTheRun) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.experiments = "t1,e99";
  std::ostringstream out;
  const RunOutcome run = run_driver(registry, options, out);
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.status, "usage");
}

TEST_F(DriverTest, MinHitRateGatesTheExitCode) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.quiet = true;
  options.min_hit_rate = 0.9;
  // Cold run: 0% hits => assertion fails.
  EXPECT_EQ(run_driver(registry, options, std::cout).exit_code, 1);
  EXPECT_EQ(manifest_verdict(), "unusable/1");
  // Warm run: 100% hits => passes.
  EXPECT_EQ(run_driver(registry, options, std::cout).exit_code, 0);
  EXPECT_EQ(manifest_verdict(), "ok/0");
}

TEST_F(DriverTest, NonCacheableExperimentsAlwaysRunFresh) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.quiet = true;
  options.experiments = "t3";
  for (int round = 0; round < 2; ++round) {
    const RunOutcome run = run_driver(registry, options, std::cout);
    ASSERT_EQ(run.experiments.size(), 1u);
    EXPECT_EQ(run.experiments[0].source, ExperimentOutcome::Source::kBypass);
    EXPECT_EQ(run.hits + run.misses, 0u);  // not a cacheable lookup
  }
}

TEST_F(DriverTest, FailingExperimentIsReportedNotFatal) {
  ExperimentRegistry registry;
  registry.add({"boom", "throws", "boom{}", true, [](ExperimentContext&) {
                  throw std::runtime_error("exploded");
                }});
  DriverOptions options = base_options();
  options.experiments = "boom";
  std::ostringstream out;
  const RunOutcome run = run_driver(registry, options, out);
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.experiments.size(), 1u);
  EXPECT_EQ(run.experiments[0].source, ExperimentOutcome::Source::kFailed);
  EXPECT_NE(run.experiments[0].error.find("exploded"), std::string::npos);
}

TEST_F(DriverTest, ManifestRecordsOutcomesAndHitRate) {
  const ExperimentRegistry registry = toy_registry();
  DriverOptions options = base_options();
  options.quiet = true;
  ASSERT_EQ(run_driver(registry, options, std::cout).exit_code, 0);
  ASSERT_EQ(run_driver(registry, options, std::cout).exit_code, 0);
  const std::string manifest = slurp(dir_ / "manifest.json");
  EXPECT_NE(manifest.find("\"source\":\"hit\""), std::string::npos);
  EXPECT_NE(manifest.find("\"hit_rate\":1"), std::string::npos);
  EXPECT_NE(manifest.find("\"id\":\"t1\""), std::string::npos);
}

// The PR-1 guarantee the cache rests on: results are bit-identical for any
// worker count, so 1-thread and 8-thread runs share cache keys and
// payloads. Exercised end-to-end on the real e1 experiment.
TEST_F(DriverTest, ThreadCountDoesNotChangeKeysOrPayloads) {
  const ExperimentRegistry registry = bench::study_registry();

  DriverOptions one = base_options();
  one.quiet = true;
  one.experiments = "e1";
  one.cache_dir = (dir_ / "cache1").string();
  one.json_out = (dir_ / "one.json").string();
  one.threads = 1;
  const RunOutcome run_one = run_driver(registry, one, std::cout);
  ASSERT_EQ(run_one.exit_code, 0);

  DriverOptions eight = one;
  eight.cache_dir = (dir_ / "cache8").string();
  eight.json_out = (dir_ / "eight.json").string();
  eight.threads = 8;
  const RunOutcome run_eight = run_driver(registry, eight, std::cout);
  ASSERT_EQ(run_eight.exit_code, 0);

  // Identical cache keys...
  ASSERT_EQ(run_one.experiments.size(), 1u);
  ASSERT_EQ(run_eight.experiments.size(), 1u);
  EXPECT_EQ(run_one.experiments[0].key_hex, run_eight.experiments[0].key_hex);
  // ...identical stored entry bytes...
  const fs::path entry1 =
      dir_ / "cache1" / (run_one.experiments[0].key_hex + ".vdc");
  const fs::path entry8 =
      dir_ / "cache8" / (run_eight.experiments[0].key_hex + ".vdc");
  EXPECT_EQ(slurp(entry1), slurp(entry8));
  // ...identical JSON exports.
  EXPECT_EQ(slurp(dir_ / "one.json"), slurp(dir_ / "eight.json"));
}

// --- resilience supervisor ------------------------------------------------

TEST(ParseArgsTest, ParsesResilienceFlags) {
  const char* argv[] = {"vdbench",     "--retries=2", "--timeout-sec=1.5",
                        "--fail-fast", "--resume",    "prev.json"};
  std::ostringstream err;
  bool help = false;
  const auto options =
      parse_args(static_cast<int>(std::size(argv)), argv, err, &help);
  ASSERT_TRUE(options.has_value()) << err.str();
  EXPECT_EQ(options->retries, 2u);
  EXPECT_DOUBLE_EQ(options->timeout_sec, 1.5);
  EXPECT_TRUE(options->fail_fast);
  EXPECT_EQ(options->resume_path, "prev.json");
}

TEST(ParseArgsTest, RejectsBadResilienceValues) {
  std::ostringstream err;
  bool help = false;
  const char* bad_retries[] = {"vdbench", "--retries=-1"};
  EXPECT_FALSE(parse_args(2, bad_retries, err, &help).has_value());
  const char* bad_timeout[] = {"vdbench", "--timeout-sec=0"};
  EXPECT_FALSE(parse_args(2, bad_timeout, err, &help).has_value());
  // A non-finite watchdog would fail every attempt at once as "timeout".
  for (const char* bad : {"--timeout-sec=inf", "--timeout-sec=nan",
                          "--timeout-sec=1e3", "--retries=2x"}) {
    const char* argv[] = {"vdbench", bad};
    EXPECT_FALSE(parse_args(2, argv, err, &help).has_value()) << bad;
  }
}

// A registry whose "flaky" experiment fails its first `failures` attempts,
// then succeeds with output identical to the always-healthy variant.
ExperimentRegistry flaky_registry(std::shared_ptr<int> remaining_failures) {
  ExperimentRegistry registry;
  registry.add({"f1", "fails then recovers", "flaky{n=1}", true,
                [remaining_failures](ExperimentContext& ctx) {
                  if (*remaining_failures > 0) {
                    --*remaining_failures;
                    throw std::runtime_error("transient failure");
                  }
                  ctx.out << "f1 report line\n";
                  ctx.add_artifact("f1_data.json", "{\"v\":1}\n");
                }});
  return registry;
}

TEST_F(DriverTest, RetryRecoversAndResultIsByteIdenticalToCleanRun) {
  DriverOptions options = base_options();
  options.quiet = true;
  options.retries = 2;

  options.json_out = (dir_ / "clean.json").string();
  options.cache_dir = (dir_ / "cache_clean").string();
  const RunOutcome clean =
      run_driver(flaky_registry(std::make_shared<int>(0)), options, std::cout);
  ASSERT_EQ(clean.exit_code, kExitOk);

  options.json_out = (dir_ / "recovered.json").string();
  options.cache_dir = (dir_ / "cache_recovered").string();
  std::ostringstream out;
  const RunOutcome recovered =
      run_driver(flaky_registry(std::make_shared<int>(2)), options, out);
  ASSERT_EQ(recovered.exit_code, kExitOk);
  ASSERT_EQ(recovered.experiments.size(), 1u);
  const ExperimentOutcome& outcome = recovered.experiments[0];
  ASSERT_EQ(outcome.attempts.size(), 3u);
  EXPECT_EQ(outcome.attempts[0].result, "exception");
  EXPECT_EQ(outcome.attempts[1].result, "exception");
  EXPECT_EQ(outcome.attempts[2].result, "ok");
  EXPECT_NE(out.str().find("attempt 1/3 failed [exception]"),
            std::string::npos);
  // The recovered run's export is byte-identical to the clean run's.
  EXPECT_EQ(slurp(dir_ / "clean.json"), slurp(dir_ / "recovered.json"));
}

TEST_F(DriverTest, CancelledRunStopsRetrying) {
  // A daemon session's token fires on its deadline, a drain or a vanished
  // client. Once it has, no experiment starts: a body that never polls
  // would otherwise compute in full for nobody.
  DriverOptions options = base_options();
  options.quiet = true;
  options.retries = 5;
  std::vector<int> calls(2, 0);
  ExperimentRegistry registry;
  for (std::size_t i = 0; i < calls.size(); ++i)
    registry.add({"n" + std::to_string(i + 1), "never polls",
                  "counted{i=" + std::to_string(i) + "}", true,
                  [&calls, i](ExperimentContext& ctx) {
                    ++calls[i];
                    ctx.out << "computed\n";
                  }});
  stats::CancellationToken token;
  token.request_cancel();
  const stats::ScopedCancellationToken install(&token);
  std::ostringstream out;
  const RunOutcome run = run_driver(registry, options, out);
  ASSERT_EQ(run.experiments.size(), 2u);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i], 0) << "experiment " << i + 1 << " ran";
    const ExperimentOutcome& outcome = run.experiments[i];
    EXPECT_EQ(outcome.source, ExperimentOutcome::Source::kFailed);
    EXPECT_EQ(outcome.error_class, "timeout");
    EXPECT_TRUE(outcome.attempts.empty()) << out.str();
  }
  EXPECT_EQ(run.exit_code, kExitUnusable);
}

TEST_F(DriverTest, OuterCancelReachesAnAttemptUnderItsOwnTimeout) {
  // A daemon session's token sits outside every --timeout-sec attempt's
  // own token. Cancelling it must reach the attempt's polls at once, not
  // after the attempt's 30 s budget, and then stop the retries.
  std::atomic<bool> entered{false};
  ExperimentRegistry registry;
  registry.add({"wait", "polls until cancelled", "wait{}", true,
                [&entered](ExperimentContext& ctx) {
                  entered.store(true);
                  const auto cap = std::chrono::steady_clock::now() +
                                   std::chrono::seconds(10);
                  while (std::chrono::steady_clock::now() < cap) {
                    if (ctx.cancellation_requested()) throw stats::Cancelled();
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                  }
                  ctx.out << "cap reached\n";
                }});
  DriverOptions options = base_options();
  options.quiet = true;
  options.timeout_sec = 30.0;
  options.retries = 2;
  stats::CancellationToken outer;
  const stats::ScopedCancellationToken install(&outer);
  std::thread canceller([&] {
    while (!entered.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    outer.request_cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  std::ostringstream out;
  const RunOutcome run = run_driver(registry, options, out);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_LT(elapsed, std::chrono::seconds(3));
  ASSERT_EQ(run.experiments.size(), 1u);
  EXPECT_EQ(run.experiments[0].error_class, "timeout") << out.str();
  EXPECT_EQ(run.experiments[0].attempts.size(), 1u) << out.str();
  EXPECT_EQ(run.experiments[0].error.find("watchdog"), std::string::npos)
      << run.experiments[0].error;
}

TEST_F(DriverTest, ExhaustedRetriesFailTheExperiment) {
  DriverOptions options = base_options();
  options.quiet = true;
  options.retries = 1;
  std::ostringstream out;
  const RunOutcome run = run_driver(
      flaky_registry(std::make_shared<int>(5)), options, out);
  EXPECT_EQ(run.exit_code, kExitUnusable);  // the only experiment failed
  ASSERT_EQ(run.experiments.size(), 1u);
  EXPECT_EQ(run.experiments[0].attempts.size(), 2u);
  EXPECT_EQ(run.experiments[0].error_class, "exception");
}

ExperimentRegistry half_broken_registry() {
  ExperimentRegistry registry;
  registry.add({"ok1", "healthy", "hb{n=1}", true,
                [](ExperimentContext& ctx) { ctx.out << "ok1 line\n"; }});
  registry.add({"bad", "always fails", "hb{n=2}", true,
                [](ExperimentContext&) {
                  throw std::runtime_error("permanently broken");
                }});
  registry.add({"ok2", "healthy", "hb{n=3}", true,
                [](ExperimentContext& ctx) { ctx.out << "ok2 line\n"; }});
  return registry;
}

TEST_F(DriverTest, PartialRunExitsThreeAndStillExports) {
  DriverOptions options = base_options();
  options.quiet = true;
  options.json_out = (dir_ / "partial.json").string();
  std::ostringstream out;
  const RunOutcome run =
      run_driver(half_broken_registry(), options, out);
  EXPECT_EQ(run.exit_code, kExitPartial);
  EXPECT_EQ(run.status, "partial");
  EXPECT_EQ(run.failed, 1u);
  ASSERT_EQ(run.experiments.size(), 3u);  // study continued past the failure

  // The export carries the successes AND the per-experiment error records.
  const std::string exported = slurp(dir_ / "partial.json");
  ASSERT_FALSE(exported.empty());
  EXPECT_NE(exported.find("ok1 line"), std::string::npos);
  EXPECT_NE(exported.find("ok2 line"), std::string::npos);
  EXPECT_NE(exported.find("\"experiment\":\"bad\""), std::string::npos);
  EXPECT_NE(exported.find("\"error_class\":\"exception\""),
            std::string::npos);

  // So does the manifest, with the full attempt history.
  const std::string manifest = slurp(dir_ / "manifest.json");
  EXPECT_NE(manifest.find("\"status\":\"partial\""), std::string::npos);
  EXPECT_NE(manifest.find("\"error\":\"permanently broken\""),
            std::string::npos);
}

TEST_F(DriverTest, FailFastAbortsOnFirstFailure) {
  DriverOptions options = base_options();
  options.quiet = true;
  options.fail_fast = true;
  std::ostringstream out;
  const RunOutcome run =
      run_driver(half_broken_registry(), options, out);
  EXPECT_EQ(run.exit_code, kExitUnusable);
  ASSERT_EQ(run.experiments.size(), 2u);  // ok1, bad — ok2 never ran
  EXPECT_NE(out.str().find("--fail-fast"), std::string::npos);
  EXPECT_EQ(manifest_verdict(), "unusable/1");
}

TEST_F(DriverTest, PartialRunAndColdCacheReportBothConditions) {
  DriverOptions options = base_options();
  options.quiet = true;
  options.min_hit_rate = 0.9;  // cold run: guaranteed violation
  std::ostringstream out;
  const RunOutcome run =
      run_driver(half_broken_registry(), options, out);
  EXPECT_EQ(run.exit_code, kExitPartial);
  EXPECT_FALSE(run.hit_rate_ok);  // the violation is no longer masked
  EXPECT_NE(out.str().find("below required"), std::string::npos);
  EXPECT_NE(out.str().find("run partial"), std::string::npos);
}

TEST_F(DriverTest, AnUnwrittenOutputMakesTheRunUnusable) {
  // Each output is judged by its writer's report of its last write: any
  // requested output left unwritten ends the run unusable and is named by
  // its flag and path. A failed manifest snapshot followed by a good final
  // manifest is only a warning.
  std::ofstream(dir_ / "a_file") << "x";
  const std::string missing = (dir_ / "no_dir" / "out.json").string();
  const std::string manifest = (dir_ / "manifest.json").string();
  struct Case {
    std::string DriverOptions::*output;  ///< pointed at `path`; null = none
    std::string path;
    std::string faults;  ///< VDBENCH_FAULTS spec; empty = disarmed
    int exit_code;
    std::string named;    ///< what the run must name; empty = nothing
    std::string verdict;  ///< manifest_verdict() afterwards
  };
  const Case cases[] = {
      {&DriverOptions::json_out, missing, "", kExitUnusable,
       "--json-out " + missing, "unusable/1"},
      {&DriverOptions::manifest_path, missing, "", kExitUnusable,
       "--manifest " + missing, "missing"},
      {&DriverOptions::trace_out, missing, "", kExitUnusable,
       "--trace-out " + missing, "unusable/1"},
      {&DriverOptions::artifact_dir, (dir_ / "a_file").string(), "",
       kExitUnusable,
       "--artifact-dir " + (dir_ / "a_file" / "t2_data.json").string(),
       "unusable/1"},
      // One experiment: write 1 is its snapshot, write 2 the final one.
      {nullptr, "", "manifest.write=io_error@2", kExitUnusable,
       "--manifest " + manifest, ""},
      {nullptr, "", "manifest.write=io_error@1", kExitOk, "", "ok/0"},
  };
  for (const Case& c : cases) {
    const std::string label = c.named + c.faults;
    fs::remove(manifest);
    DriverOptions options = base_options();
    options.quiet = true;
    options.use_cache = false;
    options.experiments = "t2";
    if (c.output != nullptr) options.*c.output = c.path;
    if (!c.faults.empty()) fault::Injector::global().arm(c.faults);
    std::ostringstream out;
    const RunOutcome run = run_driver(toy_registry(), options, out);
    fault::Injector::global().disarm();
    EXPECT_EQ(run.exit_code, c.exit_code) << label << "\n" << out.str();
    EXPECT_EQ(run.status, c.exit_code == kExitOk ? "ok" : "unusable");
    if (!c.named.empty()) {
      EXPECT_NE(out.str().find("could not write " + c.named),
                std::string::npos)
          << label << "\n" << out.str();
    } else {
      EXPECT_EQ(out.str().find("could not write --"), std::string::npos)
          << out.str();
    }
    EXPECT_EQ(manifest_verdict(), c.verdict) << label;
    // The manifest row lists the artifact, as its writer reported it.
    const std::string row =
        R"("artifacts":[{"path":")" +
        (fs::path(options.artifact_dir) / "t2_data.json").string() +
        R"(","written":)" +
        (c.output == &DriverOptions::artifact_dir ? "false" : "true") + "}]";
    if (c.verdict != "missing") {
      EXPECT_NE(slurp(manifest).find(row), std::string::npos) << label;
    }
  }
}

TEST_F(DriverTest, UnreadableResumeManifestIsAUsageError) {
  DriverOptions options = base_options();
  options.resume_path = (dir_ / "nonexistent.json").string();
  std::ostringstream out;
  EXPECT_EQ(run_driver(toy_registry(), options, out).exit_code, kExitUsage);

  std::ofstream(dir_ / "garbage.json") << "not a manifest";
  options.resume_path = (dir_ / "garbage.json").string();
  EXPECT_EQ(run_driver(toy_registry(), options, out).exit_code, kExitUsage);
}

TEST_F(DriverTest, ResumeRejectsAnEntryWithoutStatusOrAttempts) {
  // Every manifest the driver writes gives each entry a status and its
  // attempts, so an entry missing either is not a run manifest.
  const auto resume_from = [&](const std::string& manifest) {
    std::ofstream(dir_ / "resume.json") << manifest;
    DriverOptions options = base_options();
    options.quiet = true;
    options.resume_path = (dir_ / "resume.json").string();
    std::ostringstream out;
    const int exit_code = run_driver(toy_registry(), options, out).exit_code;
    return std::make_pair(exit_code, out.str());
  };
  const std::string attempts =
      R"("attempts":[{"result":"ok","seconds":0.5}])";
  EXPECT_NE(resume_from(R"({"experiments":[{"id":"t1","status":"ok",)" +
                        attempts + "}]}")
                .first,
            kExitUsage);
  for (const std::string& entry :
       {R"({"id":"t1",)" + attempts + "}",
        std::string(R"({"id":"t1","status":"ok"})")}) {
    const auto [exit_code, out] =
        resume_from(R"({"experiments":[)" + entry + "]}");
    EXPECT_EQ(exit_code, kExitUsage) << entry;
    EXPECT_NE(out.find("not a run manifest"), std::string::npos) << out;
  }
}

TEST_F(DriverTest, ResumeReplaysRecordedSuccessesAndRerunsFailures) {
  DriverOptions options = base_options();
  options.quiet = true;

  // First run: ok1/ok2 succeed, bad fails — partial manifest on disk.
  std::ostringstream first_out;
  const RunOutcome first =
      run_driver(half_broken_registry(), options, first_out);
  ASSERT_EQ(first.exit_code, kExitPartial);

  // "Fix the bug" (a registry where bad now succeeds) and resume.
  ExperimentRegistry fixed;
  fixed.add({"ok1", "healthy", "hb{n=1}", true,
             [](ExperimentContext& ctx) { ctx.out << "ok1 line\n"; }});
  fixed.add({"bad", "now fixed", "hb{n=2}", true,
             [](ExperimentContext& ctx) { ctx.out << "bad fixed line\n"; }});
  fixed.add({"ok2", "healthy", "hb{n=3}", true,
             [](ExperimentContext& ctx) { ctx.out << "ok2 line\n"; }});
  DriverOptions resume = options;
  resume.resume_path = (dir_ / "manifest.json").string();
  resume.manifest_path = (dir_ / "manifest2.json").string();
  std::ostringstream out;
  const RunOutcome second = run_driver(fixed, resume, out);
  EXPECT_EQ(second.exit_code, kExitOk);
  ASSERT_EQ(second.experiments.size(), 3u);
  // ok1/ok2 replay from the cache; bad recomputes.
  EXPECT_EQ(second.experiments[0].source, ExperimentOutcome::Source::kCacheHit);
  EXPECT_TRUE(second.experiments[0].resumed);
  EXPECT_EQ(second.experiments[1].source, ExperimentOutcome::Source::kComputed);
  EXPECT_EQ(second.experiments[2].source, ExperimentOutcome::Source::kCacheHit);
  EXPECT_NE(out.str().find("resuming from"), std::string::npos);

  // The new manifest carries both runs' attempts: the prior failed attempt
  // (flagged prior) and this run's successful one, each with a timing.
  const std::string manifest = slurp(dir_ / "manifest2.json");
  EXPECT_NE(manifest.find("\"prior\":true"), std::string::npos);
  EXPECT_NE(manifest.find("\"result\":\"exception\""), std::string::npos);
  ASSERT_EQ(second.experiments[1].attempts.size(), 2u);
  EXPECT_TRUE(second.experiments[1].attempts[0].prior);
  EXPECT_EQ(second.experiments[1].attempts[0].result, "exception");
  EXPECT_EQ(second.experiments[1].attempts[1].result, "ok");
  EXPECT_GE(second.experiments[1].attempts[1].seconds, 0.0);
}

TEST_F(DriverTest, ManifestIsPublishedIncrementallyDuringTheRun) {
  // The second experiment's body reads the manifest off disk mid-run: the
  // first experiment must already be recorded (and flagged incomplete) —
  // that is the crash-safety window --resume depends on.
  const fs::path manifest_path = dir_ / "manifest.json";
  std::string mid_run_manifest;
  ExperimentRegistry registry;
  registry.add({"a1", "first", "inc{n=1}", true,
                [](ExperimentContext& ctx) { ctx.out << "a1 line\n"; }});
  registry.add({"a2", "spies on the manifest", "inc{n=2}", true,
                [&](ExperimentContext& ctx) {
                  mid_run_manifest = slurp(manifest_path);
                  ctx.out << "a2 line\n";
                }});
  DriverOptions options = base_options();
  options.quiet = true;
  ASSERT_EQ(run_driver(registry, options, std::cout).exit_code, kExitOk);
  EXPECT_NE(mid_run_manifest.find("\"id\":\"a1\""), std::string::npos);
  EXPECT_NE(mid_run_manifest.find("\"complete\":false"), std::string::npos);
  // The final manifest is complete and records both experiments.
  const std::string final_manifest = slurp(manifest_path);
  EXPECT_NE(final_manifest.find("\"complete\":true"), std::string::npos);
  EXPECT_NE(final_manifest.find("\"id\":\"a2\""), std::string::npos);
}

TEST_F(DriverTest, WatchdogCancelsARunawayExperiment) {
  ExperimentRegistry registry;
  registry.add({"slow", "cooperatively hangs", "slow{}", true,
                [](ExperimentContext& ctx) {
                  // Parallel tasks poll the cancellation token between
                  // claims; the deadline drains the loop via Cancelled.
                  stats::parallel_for_indexed(1u << 20, [&](std::size_t) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                  });
                  ctx.out << "never reached\n";
                }});
  DriverOptions options = base_options();
  options.quiet = true;
  options.timeout_sec = 0.2;
  std::ostringstream out;
  const RunOutcome run = run_driver(registry, options, out);
  EXPECT_EQ(run.exit_code, kExitUnusable);
  ASSERT_EQ(run.experiments.size(), 1u);
  EXPECT_EQ(run.experiments[0].error_class, "timeout");
  EXPECT_NE(run.experiments[0].error.find("exceeded --timeout-sec"),
            std::string::npos);
}

TEST_F(DriverTest, ATimeoutPastTheClockRangeNeverFires) {
  // --timeout-sec takes any finite digits, and a daemon request passes its
  // timeout_sec through unchanged. A budget beyond the steady clock's range
  // must saturate to "never", not wrap into a deadline already passed.
  DriverOptions options = base_options();
  options.quiet = true;
  options.experiments = "t1";
  options.timeout_sec = 1e20;
  std::ostringstream out;
  const RunOutcome run = run_driver(toy_registry(), options, out);
  EXPECT_EQ(run.exit_code, kExitOk) << out.str();
  ASSERT_EQ(run.experiments.size(), 1u);
  EXPECT_EQ(run.experiments[0].attempts.size(), 1u);
}

// Begin events named `name` in a --trace-out document.
std::size_t count_span_begins(const std::string& trace,
                              std::string_view name) {
  const std::optional<report::JsonDocument> parsed = report::parse_json(trace);
  if (!parsed || parsed->root().member("traceEvents") == nullptr) return 0;
  const report::JsonValue* doc = &parsed->root();
  std::size_t count = 0;
  for (const report::JsonValue& event :
       *doc->member("traceEvents")->as_array()) {
    const report::OptionalView<std::string_view> event_name =
        event.member("name")->as_string();
    const report::OptionalView<std::string_view> phase =
        event.member("ph")->as_string();
    if (*event_name == name && *phase == "B") ++count;
  }
  return count;
}

TEST_F(DriverTest, ExperimentsOfOneRunShareItsStudyStages) {
  ExperimentRegistry registry;
  for (const char* id : {"r1", "r2"})
    registry.add({id, "reads s3's stage 2", "study{s3}", true,
                  [](ExperimentContext& ctx) {
                    ctx.out << ctx.study.effectiveness("s3_balanced").size()
                            << " metrics\n";
                  }});
  DriverOptions options = base_options();
  options.use_cache = false;
  // Each run_driver call has its own study: the second computes again.
  for (const char* trace : {"first.json", "second.json"}) {
    options.trace_out = (dir_ / trace).string();
    std::ostringstream out;
    ASSERT_EQ(run_driver(registry, options, out).exit_code, kExitOk)
        << out.str();
    EXPECT_EQ(count_span_begins(slurp(dir_ / trace),
                                obs::names::kStudyStage2),
              1u)
        << trace;
  }
}

}  // namespace
}  // namespace vdbench::cli
