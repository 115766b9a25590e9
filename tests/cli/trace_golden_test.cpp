// Golden-file test for --trace-out: runs real registry experiments (the
// probe and E19) through the driver, then validates the emitted
// Chrome/Perfetto trace — schema (ph/ts/pid/tid on every event), balanced
// B/E pairs per thread, and every span name drawn from the documented set
// (obs/names.h kAllSpans plus its stage:: kAllNames/kAllPrefixes tables).
// Also pins the manifest telemetry block's counter inventory, the warm/cold
// byte-identity of --json-out with telemetry present, and that the
// manifest's durations are the trace's.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/driver.h"
#include "cli/experiment.h"
#include "experiments.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "report/json_reader.h"

namespace vdbench::cli {
namespace {

namespace fs = std::filesystem;

class TraceGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vdtrace_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DriverOptions base_options() {
    DriverOptions options;
    options.cache_dir = (dir_ / "cache").string();
    options.manifest_path = (dir_ / "manifest.json").string();
    options.artifact_dir = dir_.string();
    options.threads = 1;
    options.study_seed = 7;
    options.quiet = true;
    options.clock = [this] { return ++tick_; };
    return options;
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  fs::path dir_;
  std::uint64_t tick_ = 0;
};

// The span-name registry (obs/names.h) plus the stage:: tables; prefixes
// cover the parameterised phase labels ("stage 2: s1_default").
bool is_documented_name(const std::string& name) {
  static const std::set<std::string> kExact = [] {
    std::set<std::string> exact(std::begin(obs::names::kAllSpans),
                                std::end(obs::names::kAllSpans));
    exact.insert(std::begin(obs::names::stage::kAllNames),
                 std::end(obs::names::stage::kAllNames));
    return exact;
  }();
  if (kExact.contains(name)) return true;
  for (const std::string_view prefix : obs::names::stage::kAllPrefixes)
    if (name.starts_with(prefix)) return true;
  return false;
}

// One B→E pair of a --trace-out document.
struct TracedSpan {
  std::string name;
  std::string detail;
  double tid = 0.0;
  double begin_us = 0.0;
  double end_us = 0.0;
};

// Pairs each thread's B/E events, which nest per thread, into spans listed
// in the order they end.
std::vector<TracedSpan> traced_spans(const report::JsonValue& trace) {
  std::map<double, std::vector<TracedSpan>> open;
  std::vector<TracedSpan> spans;
  for (const report::JsonValue& event :
       *trace.member("traceEvents")->as_array()) {
    const std::string_view phase = *event.member("ph")->as_string();
    const double tid = *event.member("tid")->as_number();
    const double ts = *event.member("ts")->as_number();
    if (phase == "B") {
      TracedSpan span;
      span.name = *event.member("name")->as_string();
      if (const report::JsonValue* args = event.member("args"))
        span.detail = *args->member("detail")->as_string();
      span.tid = tid;
      span.begin_us = ts;
      open[tid].push_back(std::move(span));
    } else if (phase == "E" && !open[tid].empty()) {
      TracedSpan span = std::move(open[tid].back());
      open[tid].pop_back();
      span.end_us = ts;
      spans.push_back(std::move(span));
    }
  }
  return spans;
}

TEST_F(TraceGoldenTest, ProbeRunEmitsValidBalancedDocumentedTrace) {
  const ExperimentRegistry registry = bench::study_registry();
  DriverOptions options = base_options();
  options.experiments = "probe,e19";
  options.trace_out = (dir_ / "trace.json").string();
  std::ostringstream out;
  const RunOutcome outcome = run_driver(registry, options, out);
  EXPECT_EQ(outcome.exit_code, kExitOk) << out.str();

  const std::string text = slurp(dir_ / "trace.json");
  ASSERT_FALSE(text.empty());
  const std::optional<report::JsonDocument> parsed = report::parse_json(text);
  ASSERT_TRUE(parsed.has_value()) << "trace is not valid JSON";
  const report::JsonValue* doc = &parsed->root();
  ASSERT_TRUE(doc->is_object());
  const report::JsonValue* events = doc->member("traceEvents");
  ASSERT_NE(events, nullptr);
  const report::OptionalView<report::JsonArray> array = events->as_array();
  ASSERT_TRUE(array.has_value());
  ASSERT_FALSE(array->empty());

  std::map<double, int> depth_by_tid;
  std::set<std::string> names;
  for (const report::JsonValue& event : *array) {
    const report::JsonValue* name = event.member("name");
    const report::JsonValue* ph = event.member("ph");
    const report::JsonValue* ts = event.member("ts");
    const report::JsonValue* pid = event.member("pid");
    const report::JsonValue* tid = event.member("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_TRUE(name->as_string().has_value());
    ASSERT_TRUE(ph->as_string().has_value());
    ASSERT_TRUE(ts->as_number().has_value());
    ASSERT_TRUE(pid->as_number().has_value());
    ASSERT_TRUE(tid->as_number().has_value());
    EXPECT_FALSE(name->as_string()->empty());
    EXPECT_GE(*ts->as_number(), 0.0);
    EXPECT_EQ(*pid->as_number(), 1.0);

    const std::string_view phase = *ph->as_string();
    ASSERT_TRUE(phase == "B" || phase == "E" || phase == "i")
        << "unknown phase " << phase;
    int& depth = depth_by_tid[*tid->as_number()];
    if (phase == "B") ++depth;
    if (phase == "E") --depth;
    ASSERT_GE(depth, 0) << "E without matching B on tid "
                        << *tid->as_number();
    names.emplace(*name->as_string());
    EXPECT_TRUE(is_documented_name(std::string(*name->as_string())))
        << "undocumented span name: " << *name->as_string();
  }
  for (const auto& [tid, depth] : depth_by_tid)
    EXPECT_EQ(depth, 0) << "unbalanced B/E on tid " << tid;

  // The run must actually hit the three layers the tracer claims to cover:
  // the driver loop, the experiments' stage scopes, and the executor.
  EXPECT_TRUE(names.count("driver.experiment"));
  EXPECT_TRUE(names.count(bench::stage::kChecksum));
  EXPECT_TRUE(names.count(bench::stage::kCorpusIntake));
  EXPECT_TRUE(names.count("executor.task"));
}

TEST_F(TraceGoldenTest, ManifestTelemetryExportsEveryCounterAndGauge) {
  const ExperimentRegistry registry = bench::study_registry();
  DriverOptions options = base_options();
  options.experiments = "probe";
  std::ostringstream out;
  const RunOutcome outcome = run_driver(registry, options, out);
  ASSERT_EQ(outcome.exit_code, kExitOk) << out.str();

  const std::string manifest = slurp(dir_ / "manifest.json");
  const std::optional<report::JsonDocument> parsed =
      report::parse_json(manifest);
  ASSERT_TRUE(parsed.has_value());
  const report::JsonValue* doc = &parsed->root();
  const report::JsonValue* telemetry = doc->member("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const report::JsonValue* counters = telemetry->member("counters");
  ASSERT_NE(counters, nullptr);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    const report::JsonValue* value =
        counters->member(obs::counter_name(counter));
    ASSERT_NE(value, nullptr)
        << "manifest telemetry missing counter "
        << obs::counter_name(counter);
    EXPECT_TRUE(value->as_number().has_value());
  }
  const report::JsonValue* gauges = telemetry->member("gauges");
  ASSERT_NE(gauges, nullptr);
  for (std::size_t i = 0; i < obs::kGaugeCount; ++i) {
    const auto gauge = static_cast<obs::Gauge>(i);
    ASSERT_NE(gauges->member(obs::gauge_name(gauge)), nullptr)
        << "manifest telemetry missing gauge " << obs::gauge_name(gauge);
  }
  // The probe computes (never cached), so the run counted an executed
  // experiment and its 256 executor tasks.
  EXPECT_GE(*counters->member("experiments.computed")->as_number(), 1.0);
  EXPECT_GE(*counters->member("tasks.executed")->as_number(), 256.0);
}

TEST_F(TraceGoldenTest, ManifestDurationsAreTheTracesSpans) {
  // Stage scopes and the driver's experiment and attempt spans read the
  // clock once per boundary and write those readings into the trace, so
  // each manifest duration equals its B→E pairs to the trace's 1 µs
  // resolution per call.
  ExperimentRegistry registry = bench::study_registry();
  registry.add({"phases", "two phases, one run twice", "phases{}", false,
                [](ExperimentContext& ctx) {
                  for (const char* label : {"phase a", "phase b", "phase a"}) {
                    const auto scope = ctx.timer.scope(label);
                    volatile double sink = 0.0;
                    for (int i = 0; i < 20000; ++i)
                      sink = sink + static_cast<double>(i);
                  }
                }});
  DriverOptions options = base_options();
  options.experiments = "probe,phases";
  options.use_cache = false;
  options.threads = 2;
  options.trace_out = (dir_ / "trace.json").string();
  std::ostringstream out;
  ASSERT_EQ(run_driver(registry, options, out).exit_code, kExitOk)
      << out.str();

  const std::string manifest_text = slurp(dir_ / "manifest.json");
  const std::string trace_text = slurp(dir_ / "trace.json");
  const std::optional<report::JsonDocument> manifest =
      report::parse_json(manifest_text);
  const std::optional<report::JsonDocument> trace =
      report::parse_json(trace_text);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_TRUE(trace.has_value());
  const std::vector<TracedSpan> spans = traced_spans(trace->root());
  const auto seconds = [](const report::JsonValue& entry) {
    return *entry.member("seconds")->as_number();
  };

  const report::JsonArray experiments =
      *manifest->root().member("experiments")->as_array();
  ASSERT_EQ(experiments.size(), 2u);
  for (const report::JsonValue& experiment : experiments) {
    const std::string id(*experiment.member("id")->as_string());
    const TracedSpan* whole = nullptr;
    std::vector<const TracedSpan*> attempt_spans;
    for (const TracedSpan& span : spans) {
      if (span.detail != id) continue;
      if (span.name == obs::names::kDriverExperiment) whole = &span;
      if (span.name == obs::names::kDriverAttempt)
        attempt_spans.push_back(&span);
    }
    ASSERT_NE(whole, nullptr) << id;
    EXPECT_NEAR(seconds(experiment) * 1e6, whole->end_us - whole->begin_us,
                1.0)
        << id;

    const report::JsonArray attempts =
        *experiment.member("attempts")->as_array();
    ASSERT_EQ(attempts.size(), attempt_spans.size()) << id;
    for (std::size_t a = 0; a < attempts.size(); ++a)
      EXPECT_NEAR(seconds(attempts[a]) * 1e6,
                  attempt_spans[a]->end_us - attempt_spans[a]->begin_us, 1.0)
          << id << " attempt " << a;

    const report::JsonArray stages = *experiment.member("stages")->as_array();
    ASSERT_FALSE(stages.empty()) << id;
    for (const report::JsonValue& stage : stages) {
      const std::string label(*stage.member("label")->as_string());
      const double calls = *stage.member("calls")->as_number();
      double traced_us = 0.0;
      double traced_calls = 0.0;
      for (const TracedSpan& span : spans) {
        if (span.name != label || span.tid != whole->tid ||
            span.begin_us < whole->begin_us || span.end_us > whole->end_us)
          continue;
        traced_us += span.end_us - span.begin_us;
        ++traced_calls;
      }
      EXPECT_EQ(traced_calls, calls) << id << " " << label;
      EXPECT_NEAR(seconds(stage) * 1e6, traced_us, calls)
          << id << " " << label;
    }
  }
}

TEST_F(TraceGoldenTest, JsonExportStaysByteIdenticalWarmVsCold) {
  // The telemetry block in --json-out is derived from the exported content
  // only (never from run-variant counters), so a cold computing run and a
  // warm cache-replay run export byte-identical documents.
  ExperimentRegistry registry;
  registry.add({"t1", "writes a line", "toy{n=1}", true,
                [](ExperimentContext& ctx) {
                  // vdlint:allow(vdl-phase-literal)
                  const auto scope = ctx.timer.scope("compute");
                  ctx.out << "t1 report line\n";
                  ctx.add_artifact("t1_data.json", "{\"v\":1}\n");
                }});

  DriverOptions options = base_options();
  options.experiments = "t1";
  options.json_out = (dir_ / "export.json").string();
  std::ostringstream out_cold;
  const RunOutcome cold = run_driver(registry, options, out_cold);
  ASSERT_EQ(cold.exit_code, kExitOk) << out_cold.str();
  ASSERT_EQ(cold.misses, 1u);
  const std::string export_cold = slurp(dir_ / "export.json");

  std::ostringstream out_warm;
  const RunOutcome warm = run_driver(registry, options, out_warm);
  ASSERT_EQ(warm.exit_code, kExitOk) << out_warm.str();
  ASSERT_EQ(warm.hits, 1u);
  const std::string export_warm = slurp(dir_ / "export.json");

  EXPECT_EQ(export_cold, export_warm)
      << "--json-out must not depend on cache temperature";

  const std::optional<report::JsonDocument> parsed =
      report::parse_json(export_cold);
  ASSERT_TRUE(parsed.has_value());
  const report::JsonValue* doc = &parsed->root();
  const report::JsonValue* telemetry = doc->member("telemetry");
  ASSERT_NE(telemetry, nullptr) << "export telemetry block missing";
  ASSERT_NE(telemetry->member("experiments"), nullptr);
  EXPECT_EQ(*telemetry->member("experiments")->as_number(), 1.0);
  EXPECT_EQ(*telemetry->member("failures")->as_number(), 0.0);
  EXPECT_GT(*telemetry->member("payload_bytes")->as_number(), 0.0);
  EXPECT_EQ(*telemetry->member("artifacts")->as_number(), 1.0);
  ASSERT_NE(telemetry->member("payload_size_log2"), nullptr);
  EXPECT_FALSE(telemetry->member("payload_size_log2")->as_array()->empty());
}

}  // namespace
}  // namespace vdbench::cli
