// The traced run: per-layer metrics from spans the harness opens around
// each call it makes into a layer's public functions. Every traced run
// measures every layer, whatever its workload, so all runs report the same
// metric set; the workload seed still drives the corpus, the arrival
// schedule and the stream.
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cache/result_cache.h"
#include "core/batch.h"
#include "core/metrics.h"
#include "core/sampling.h"
#include "corpus/intake.h"
#include "corpus/matcher.h"
#include "daemon.h"
#include "experiments.h"
#include "harness.h"
#include "json.h"
#include "procfs.h"
#include "stats.h"
#include "stats/arena.h"
#include "stats/parallel.h"
#include "stream/report_log.h"
#include "study_common.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kRepeats = 15;

double ms(double seconds) { return seconds * 1e3; }
double us(double seconds) { return seconds * 1e6; }

// --- cold_study layers -----------------------------------------------------

/// Each cacheable experiment as its own run_driver over one empty cache
/// (filled as it goes; the serve probes reuse it), then the whole study
/// as one op. The op's unattributed time is its wall minus the seconds the
/// driver reports for its experiments: manifest rewrites, the export and
/// driver set-up. (Subtracting the separate calls' walls instead leaves the
/// difference of two noisy 15 s figures, which can read negative.)
fs::path probe_study(const Options& options,
                     const cli::ExperimentRegistry& registry, Trace& trace,
                     RunReport& report) {
  const fs::path dir = options.scratch / "study";
  const fs::path cache = dir / "cache";
  std::vector<std::string> unknown;
  double experiments_s = 0.0;
  for (const cli::Experiment* experiment : registry.select("all", unknown)) {
    cli::DriverOptions run = study_options(experiment->id, dir, "exp", cache);
    run.json_out.clear();
    run.manifest_path.clear();
    trace.begin_op();
    NullStream sink;
    const double cpu_before = process_cpu_seconds();
    auto span = trace.span("cli.run_driver", experiment->id);
    const cli::RunOutcome outcome = cli::run_driver(registry, run, sink);
    const double wall = span.end();
    const double cpu = process_cpu_seconds() - cpu_before;
    experiments_s += wall;
    const std::string prefix = "experiments." + experiment->id;
    report.metric(prefix + ".wall_s", wall, "s");
    report.metric(prefix + ".cpu_util",
                  cpu / (wall * static_cast<double>(kThreads)), "ratio");
    report.ops.record(outcome.exit_code == cli::kExitOk && outcome.misses == 1
                          ? ""
                          : experiment->id + " did not compute cleanly");
  }

  trace.begin_op();
  const fs::path op_dir = options.scratch / "study-op";
  const cli::DriverOptions all = study_options("all", op_dir, "cold", op_dir / "cache");
  NullStream sink;
  auto span = trace.span("cli.run_driver", "all");
  const cli::RunOutcome outcome = cli::run_driver(registry, all, sink);
  const double op_s = span.end();
  report.ops.record(outcome.exit_code == cli::kExitOk ? "" : "cold all failed");
  double attributed_s = 0.0;
  for (const cli::ExperimentOutcome& experiment : outcome.experiments)
    attributed_s += experiment.seconds;
  report.metric("cli.unattributed_s", op_s - attributed_s, "s");
  report.note("study_s", "{\"separate_calls\":" + format_number(experiments_s) +
                             ",\"one_op\":" + format_number(op_s) + "}");
  fs::remove_all(op_dir);
  return cache;
}

/// Metric kernels per context over one seeded grid: the scalar catalogue
/// and the batch plane, which must agree bit for bit.
void probe_kernels(Trace& trace, RunReport& report) {
  constexpr std::size_t kContexts = 4096;
  SplitMix64 rng(bench::kStudySeed);
  const auto cell = [&rng](std::uint64_t hi) -> std::uint64_t {
    return rng.uniform() < 0.15 ? 0 : rng.next() % (hi + 1);
  };
  std::vector<core::EvalContext> grid;
  for (std::size_t i = 0; i < kContexts; ++i)
    grid.push_back(core::make_abstract_context(
        core::ConfusionMatrix{.tp = cell(400), .fp = cell(400),
                              .tn = cell(4000), .fn = cell(400)},
        5.0, 1.0));

  std::vector<double> scalar(kContexts * core::kMetricCount);
  std::vector<double> scalar_s, batch_s;
  trace.begin_op();
  for (int r = 0; r < kRepeats; ++r) {
    auto span = trace.span("core.compute_all_metrics", "4096 contexts");
    for (std::size_t i = 0; i < kContexts; ++i)
      core::compute_all_metrics(
          grid[i], std::span<double>(scalar).subspan(i * core::kMetricCount,
                                                     core::kMetricCount));
    scalar_s.push_back(span.end());
  }
  stats::Arena arena;
  bool identical = true;
  for (int r = 0; r < kRepeats; ++r) {
    arena.reset();
    auto span = trace.span("core.BatchEvaluator.evaluate_all", "4096 contexts");
    const core::ConfusionBatch batch = core::make_batch(grid, arena);
    const core::BatchEvaluator evaluator(arena);
    const std::span<double> plane =
        arena.allocate_span<double>(kContexts * core::kMetricCount);
    evaluator.evaluate_all(batch, plane);
    batch_s.push_back(span.end());
    for (std::size_t j = 0; j < plane.size(); ++j)
      identical = identical && (std::memcmp(&plane[j], &scalar[j], sizeof(double)) == 0);
  }
  report.ops.record(identical ? "" : "batch plane differs from scalar metrics");
  report.metric("core.metrics_scalar_ns", median(scalar_s) / kContexts * 1e9, "ns");
  report.metric("core.metrics_batch_ns", median(batch_s) / kContexts * 1e9, "ns");
}

/// One fork-join of no-op tasks on a 2-thread executor.
void probe_fork_join(Trace& trace, RunReport& report) {
  constexpr int kCalls = 400;
  stats::ParallelExecutor executor(kThreads);
  for (int i = 0; i < 50; ++i) executor.parallel_for_indexed(64, [](std::size_t) {});
  std::vector<double> call_s;
  trace.begin_op();
  auto loop = trace.span("stats.ParallelExecutor", "400 calls x 64 no-op tasks");
  for (int i = 0; i < kCalls; ++i) {
    const auto start = Clock::now();
    executor.parallel_for_indexed(64, [](std::size_t) {});
    call_s.push_back(seconds_since(start));
  }
  loop.end();
  report.metric("stats.fork_join_us", us(median(call_s)), "us");
}

// --- vdbenchd layers ---------------------------------------------------------

double hit_rate_of(const std::string& manifest) {
  const std::string key = "\"hit_rate\":";
  const std::size_t at = manifest.find(key);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(manifest.c_str() + at + key.size(), nullptr);
}

void probe_serve(const Options& options, const cli::ExperimentRegistry& registry,
                 const fs::path& filled_cache, Trace& trace, RunReport& report) {
  const fs::path dir = options.scratch / "serve";
  fs::create_directories(dir);
  fs::copy(filled_cache, dir / "cache", fs::copy_options::recursive);
  fs::copy(filled_cache, dir / "replay-cache", fs::copy_options::recursive);
  const fs::path socket = dir / kSocketName;

  Daemon daemon(options.daemon, dir, daemon_args());
  if (!daemon.wait_ready(socket, 30.0))
    throw std::runtime_error("vdbenchd did not come up");

  // Unloaded sessions of each kind.
  PhaseCounts probe_counts;
  trace.begin_op();
  Session first;
  {
    auto span = trace.span("net.run_study", std::string(kWarmStudy) + " + manifest");
    first = run_session(socket, false, /*want_manifest=*/true);
  }
  probe_counts.add(first, first.exit_code == 0);
  report.ops.record(session_failure(first, first.export_json));
  report.metric("cache.hit_rate", hit_rate_of(first.manifest_json), "ratio");
  report.metric("net.export_kib", static_cast<double>(first.export_json.size()) / 1024.0, "KiB");

  std::vector<double> warm_s, refresh_s;
  std::string refresh_reference;
  for (int r = 0; r < kRepeats; ++r) {
    for (const bool refresh : {false, true}) {
      trace.begin_op();
      auto span = trace.span("net.run_study", refresh ? "refresh e12" : kWarmStudy);
      const Session session = run_session(socket, refresh);
      (refresh ? refresh_s : warm_s).push_back(span.end());
      if (refresh && refresh_reference.empty()) refresh_reference = session.export_json;
      const std::string failure = session_failure(
          session, refresh ? refresh_reference : first.export_json);
      probe_counts.add(session, failure.empty());
      report.ops.record(failure);
    }
  }
  const double session_ms = ms(median(warm_s));
  report.metric("net.session_ms", session_ms, "ms");
  report.metric("net.refresh_session_ms", ms(median(refresh_s)), "ms");

  // Generator lateness under the 20/s open loop, spans off.
  const LoadResult load = run_load(
      socket, arrival_schedule(derive_seed(options.seed, "serve"),
                               kArrivalsPerSecond, kLoadSessions, kRefreshEvery),
      first.export_json, report.ops);
  // kLoadSessions = 200 puts exactly ten sessions beyond p95.
  report.metric("loadgen.late_p95_ms",
                ms(supported_percentile(load.late_s, 0.95).value()), "ms");
  const Daemon::Stop stop = daemon.stop(15.0);
  report.ops.record(stop.drained && stop.exit_code == 0 ? "" : "vdbenchd did not drain cleanly");
  Json phases;
  phases.begin_object()
      .key("probe").raw(probe_counts.json())
      .key("load").raw(load.counts.json())
      .key("load_p50_ms").value(ms(median(load.latency_s)))
      .key("load_p95_ms").value(ms(supported_percentile(load.latency_s, 0.95).value()))
      .end_object();
  report.note("sessions", phases.str());

  // The same warm study in-process, writing a manifest and an export like
  // a session does; the session time beyond it is the daemon's overhead.
  std::vector<double> replay_s;
  for (int r = 0; r < kRepeats; ++r) {
    const cli::DriverOptions warm = study_options(
        kWarmStudy, dir / "replay", "session-" + std::to_string(r), dir / "replay-cache");
    fs::create_directories(warm.artifact_dir);
    NullStream sink;
    trace.begin_op();
    auto span = trace.span("cli.run_driver", std::string("warm ") + kWarmStudy);
    const cli::RunOutcome outcome = cli::run_driver(registry, warm, sink);
    replay_s.push_back(span.end());
    report.ops.record(outcome.exit_code == cli::kExitOk &&
                              outcome.hits == outcome.experiments.size()
                          ? check_identical("warm replay export", first.export_json,
                                            read_file(warm.json_out))
                          : "in-process warm replay missed the cache");
  }
  report.metric("cli.warm_replay_ms", ms(median(replay_s)), "ms");
  report.metric("net.overhead_ms", session_ms - ms(median(replay_s)), "ms");

  // Cache entry round trip: fetch, decode, store, per entry.
  cache::ResultCache source({dir / "replay-cache"});
  cache::ResultCache sink_cache({dir / "store-cache"});
  std::vector<double> fetch_s, decode_s, store_s;
  std::vector<std::string> unknown;
  std::uint64_t now = 1;
  for (int r = 0; r < kRepeats; ++r) {
    for (const cli::Experiment* experiment : registry.select("all", unknown)) {
      const cache::CacheKey key{experiment->id, experiment->config,
                                bench::kStudySeed, cli::kEngineSchemaVersion};
      trace.begin_op();
      std::optional<std::string> payload;
      {
        auto span = trace.span("cache.ResultCache.fetch", experiment->id);
        payload = source.fetch(key, ++now);
        fetch_s.push_back(span.end());
      }
      if (!payload) {
        report.ops.record("cache entry " + experiment->id + " missing");
        continue;
      }
      {
        auto span = trace.span("cli.decode_payload", experiment->id);
        const bool decoded = cli::decode_payload(*payload).has_value();
        decode_s.push_back(span.end());
        report.ops.record(decoded ? "" : "payload " + experiment->id + " undecodable");
      }
      auto span = trace.span("cache.ResultCache.store", experiment->id);
      sink_cache.store(key, *payload, now);
      store_s.push_back(span.end());
    }
  }
  report.metric("cache.fetch_us", us(median(fetch_s)), "us");
  report.metric("cli.decode_payload_us", us(median(decode_s)), "us");
  report.metric("cache.store_us", us(median(store_s)), "us");
}

// --- intake layers -----------------------------------------------------------

/// One rotation of E19's external-corpus path, call by call.
void probe_intake(const Options& options, Trace& trace, RunReport& report) {
  const IntakeInputs inputs = write_intake_inputs(options.scratch / "intake", options.seed);
  // E19's ranking metrics, in its order.
  static const core::MetricId kRankingMetrics[] = {
      core::MetricId::kRecall,       core::MetricId::kSpecificity,
      core::MetricId::kInformedness, core::MetricId::kPrecision,
      core::MetricId::kFMeasure,     core::MetricId::kMcc,
      core::MetricId::kAccuracy,     core::MetricId::kMarkedness,
  };
  std::vector<double> digest_s, manifest_s, sarif_s, match_s, direct_s, streamed_s, metric_s;
  double read_bytes = 0.0;
  corpus::MatchStats totals;
  std::uint64_t findings = 0;
  std::uint64_t sites = 0;
  for (std::size_t tool = 0; tool < inputs.reports.size(); ++tool) {
    const std::string sarif_path = inputs.reports[tool].string();
    const std::string truth_path = inputs.truth.string();
    trace.begin_op();
    auto op = trace.span("intake.op", inputs.tools[tool]);
    {
      auto span = trace.span("stream.file_digest", "report + truth");
      (void)stream::file_digest(sarif_path);
      (void)stream::file_digest(truth_path);
      digest_s.push_back(span.end());
    }
    corpus::Manifest manifest;
    {
      auto span = trace.span("corpus.read_manifest_file");
      manifest = corpus::read_manifest_file(truth_path);
      manifest_s.push_back(span.end());
    }
    corpus::SarifReport sarif;
    {
      auto span = trace.span("corpus.read_sarif_file");
      sarif = corpus::read_sarif_file(sarif_path);
      sarif_s.push_back(span.end());
    }
    read_bytes += static_cast<double>(fs::file_size(truth_path) + fs::file_size(sarif_path));
    corpus::MatchResult match;
    {
      auto span = trace.span("corpus.match_findings");
      match = corpus::match_findings(manifest, sarif);
      match_s.push_back(span.end());
    }
    core::ConfusionMatrix direct, streamed;
    {
      auto span = trace.span("corpus.evaluate_direct");
      direct = corpus::evaluate_direct(match.records);
      direct_s.push_back(span.end());
    }
    {
      auto span = trace.span("corpus.evaluate_streamed", "512 sites/chunk");
      streamed = corpus::evaluate_streamed(match.records, 512);
      streamed_s.push_back(span.end());
    }
    report.ops.record(direct == streamed ? "" : "intake: streamed fold differs from direct");
    {
      auto span = trace.span("core.compute_metric", "x8");
      core::EvalContext ec;
      ec.cm = direct;
      ec.cost_fn = 10.0;
      ec.cost_fp = 1.0;
      double checksum = 0.0;
      for (const core::MetricId id : kRankingMetrics) checksum += core::compute_metric(id, ec);
      metric_s.push_back(span.end());
      trace.count("core.metric_checksum", checksum);
    }
    op.end();
    trace.count("corpus.matched", static_cast<double>(match.stats.matched));
    sites = manifest.site_count();
    findings += sarif.findings.size();
    totals.matched += match.stats.matched;
    totals.stray += match.stats.stray;
    totals.duplicates += match.stats.duplicates;
    totals.unknown_rule += match.stats.unknown_rule;
  }
  double read_s = 0.0;
  for (std::size_t i = 0; i < manifest_s.size(); ++i) read_s += manifest_s[i] + sarif_s[i];
  report.metric("corpus.digest_ms", ms(median(digest_s)), "ms");
  report.metric("corpus.manifest_read_ms", ms(median(manifest_s)), "ms");
  report.metric("corpus.sarif_read_ms", ms(median(sarif_s)), "ms");
  report.metric("corpus.read_mb_per_s", read_bytes / 1e6 / read_s, "MB/s");
  report.metric("corpus.match_ms", ms(median(match_s)), "ms");
  report.metric("corpus.fold_direct_ms", ms(median(direct_s)), "ms");
  report.metric("corpus.fold_streamed_ms", ms(median(streamed_s)), "ms");
  report.metric("core.metric_eval_us", us(median(metric_s)), "us");
  report.metric("corpus.sites", static_cast<double>(sites), "count");
  report.metric("corpus.findings", static_cast<double>(findings), "count");
  report.metric("corpus.matched", static_cast<double>(totals.matched), "count");
  report.metric("corpus.stray", static_cast<double>(totals.stray), "count");
  report.metric("corpus.duplicates", static_cast<double>(totals.duplicates), "count");
  report.metric("corpus.unknown_rule", static_cast<double>(totals.unknown_rule), "count");
  report.metric("corpus.match_ratio",
                static_cast<double>(totals.matched) / static_cast<double>(findings), "ratio");
  fs::remove_all(options.scratch / "intake");
}

// --- stream layers -------------------------------------------------------------

void probe_stream(const Options& options, Trace& trace, RunReport& report) {
  const stream::StreamSpec spec = stream_spec(options.seed);
  const fs::path dir = options.scratch / "stream";
  fs::create_directories(dir);
  const fs::path log = dir / "probe.vdrlog";
  std::vector<double> generate_s, record_s, replay_s;
  stream::StreamResult recorded;
  double log_bytes = 0.0;
  for (int r = 0; r < 3; ++r) {
    trace.begin_op();
    stream::StreamResult generated;
    {
      auto span = trace.span("stream.stream_evaluate", "no log");
      generated = stream::stream_evaluate(spec);
      generate_s.push_back(span.end());
    }
    {
      auto span = trace.span("stream.stream_evaluate", "ReportLogWriter");
      stream::ReportLogWriter writer(log);
      recorded = stream::stream_evaluate(spec, {}, {&writer, nullptr});
      writer.close();
      record_s.push_back(span.end());
    }
    log_bytes = static_cast<double>(fs::file_size(log));
    stream::StreamResult replayed;
    {
      auto span = trace.span("stream.stream_evaluate", "ReportLogReader");
      stream::ReportLogReader reader(log);
      replayed = stream::stream_evaluate(spec, {}, {nullptr, &reader});
      replay_s.push_back(span.end());
    }
    fs::remove(log);
    std::string failure = check_stream_counts(counts_of(recorded), counts_of(replayed),
                                              spec.total_sites);
    if (failure.empty() && !(counts_of(generated) == counts_of(recorded)))
      failure = "stream: recording changed the counts";
    report.ops.record(failure);
    trace.count("stream.backpressure_waits", static_cast<double>(recorded.backpressure_waits));
  }
  report.metric("stream.generate_ms", ms(median(generate_s)), "ms");
  report.metric("stream.record_ms", ms(median(record_s)), "ms");
  report.metric("stream.replay_ms", ms(median(replay_s)), "ms");
  report.metric("stream.encode_ms", ms(median(record_s) - median(generate_s)), "ms");
  report.metric("stream.log_mib", log_bytes / (1024.0 * 1024.0), "MiB");
  report.metric("stream.chunks", static_cast<double>(recorded.chunks), "count");
  report.metric("stream.backpressure_waits",
                static_cast<double>(recorded.backpressure_waits), "count");
  fs::remove_all(dir);
}

}  // namespace

RunReport run_probes(const Options& options, Trace& trace) {
  RunReport report;
  const cli::ExperimentRegistry registry = bench::study_registry();
  const fs::path filled_cache = probe_study(options, registry, trace, report);
  probe_kernels(trace, report);
  probe_fork_join(trace, report);
  probe_serve(options, registry, filled_cache, trace, report);
  probe_intake(options, trace, report);
  probe_stream(options, trace, report);
  return report;
}

}  // namespace perfbench
