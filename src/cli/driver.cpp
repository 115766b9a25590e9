#include "cli/driver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "cache/hash.h"
#include "core/study.h"
#include "fault/injector.h"
#include "obs/clock.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "report/json.h"
#include "report/json_reader.h"
#include "report/table.h"
#include "stats/env.h"
#include "stats/parallel.h"
#include "stream/report_log.h"

namespace vdbench::cli {

namespace {

constexpr std::string_view kUsage =
    R"(usage: vdbench [options]

Runs the reconstructed DSN'15 study experiments through the on-disk result
cache: unchanged experiments are served from disk, the rest compute on the
deterministic parallel engine and are persisted for next time. A resilience
supervisor retries failures, cancels overrunning experiments, and records
every attempt in a crash-safe run manifest.

options:
  --experiments LIST   comma-separated ids (e.g. e2,e6,e13) or "all"
                       (default: all cacheable experiments)
  --threads N          worker count for the parallel engine, 1 to 256
                       (default: VDBENCH_THREADS or hardware concurrency);
                       results are bit-identical for any value
  --cache-dir PATH     cache location (default: VDBENCH_CACHE_DIR or
                       .vdbench-cache)
  --cache-max-bytes N  LRU size cap (default: VDBENCH_CACHE_MAX_BYTES or
                       256 MiB)
  --no-cache           bypass the cache entirely (no reads, no writes)
  --refresh            recompute selected experiments, overwriting entries
  --retries N          extra compute attempts after a failure (default: 0);
                       retried results are byte-identical to first-try runs
  --timeout-sec X      per-experiment wall-clock deadline; past it the
                       experiment is cancelled cooperatively and classified
                       as "timeout" (default: disabled)
  --fail-fast          abort the study on the first experiment that fails
                       after retries (exit 1) instead of degrading
  --resume PATH        continue a previous run from its manifest:
                       experiments recorded as succeeded replay from the
                       cache, the rest run again; prior attempts' timings
                       carry into the new manifest
  --json-out PATH      write the combined JSON export; a degraded run still
                       exports (successes + per-experiment error records)
  --trace-out PATH     record the whole run as a Chrome trace-event JSON
                       file (open at chrome://tracing or ui.perfetto.dev);
                       tracing off costs one relaxed atomic load per span
  --manifest PATH      run manifest location, rewritten atomically after
                       every experiment (default: vdbench_manifest.json;
                       empty string disables)
  --artifact-dir PATH  directory for experiment artifact files (default: .)
  --record-log PATH    record streaming experiments' produced chunks into a
                       checksummed binary report log (skips cache lookups
                       for those experiments so the log is always produced)
  --replay-log PATH    source streaming experiments' chunks from a recorded
                       report log instead of generating them; the replayed
                       run's exports are byte-identical to the recorded
                       run's at any thread count (mutually exclusive with
                       --record-log)
  --sarif-report PATH  score a real SARIF 2.1.0 report in corpus
                       experiments (E19); requires --ground-truth, and both
                       files' content digests join those experiments' cache
                       keys
  --ground-truth PATH  ground-truth manifest naming the sites the SARIF
                       report is scored against (see README for the schema)
  --min-hit-rate R     fail the run when the cacheable hit rate is < R
                       (CI warm-cache assertion; default: disabled)
  --quiet              suppress experiment report text
  --list               list registered experiments and exit
  --help               this text

exit codes: 0 ok | 3 partial (some experiments failed, study usable) |
1 unusable (all failed, --min-hit-rate violated, --fail-fast abort, or a
requested output not written) | 2 usage error

environment: VDBENCH_FAULTS arms the deterministic fault injector, e.g.
"cache.write=io_error@3;experiment.body=throw@e13:1" (see README).
)";

std::string_view source_name(ExperimentOutcome::Source source) {
  switch (source) {
    case ExperimentOutcome::Source::kComputed: return "miss";
    case ExperimentOutcome::Source::kCacheHit: return "hit";
    case ExperimentOutcome::Source::kBypass: return "bypass";
    case ExperimentOutcome::Source::kFailed: return "failed";
  }
  return "unknown";
}

void print_stage_table(const std::vector<stats::StageTimer::Stage>& stages,
                       std::size_t threads, std::ostream& os) {
  double total = 0.0;
  for (const stats::StageTimer::Stage& stage : stages) total += stage.seconds;
  report::Table table({"stage", "seconds", "share"});
  for (const stats::StageTimer::Stage& stage : stages)
    table.add_row({stage.label, report::format_value(stage.seconds, 3),
                   report::format_percent(
                       total == 0.0 ? 0.0 : stage.seconds / total, 1)});
  table.add_row({"total", report::format_value(total, 3),
                 report::format_percent(total == 0.0 ? 0.0 : 1.0, 1)});
  os << "stage timings (threads=" << threads << "):\n";
  table.print(os);
}

std::vector<ArtifactWrite> write_artifacts(
    const std::vector<Artifact>& artifacts, const std::string& artifact_dir,
    std::ostream& out) {
  std::vector<ArtifactWrite> writes;
  if (artifacts.empty()) return writes;
  const std::filesystem::path dir =
      artifact_dir.empty() ? std::filesystem::path(".")
                           : std::filesystem::path(artifact_dir);
  // write_file_atomic creates no directory; a failure here shows as the
  // artifact's own failed write below, which finish() reports.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const Artifact& artifact : artifacts) {
    const std::string path = (dir / artifact.name).string();
    writes.push_back({path, cache::write_file_atomic(path, artifact.content)});
    if (writes.back().written) out << "wrote artifact " << path << "\n";
  }
  return writes;
}

// The one run-status rule: a run's status is the name of its exit code.
void set_exit_code(RunOutcome& run, int exit_code) {
  run.exit_code = exit_code;
  switch (exit_code) {
    case kExitOk: run.status = "ok"; break;
    case kExitPartial: run.status = "partial"; break;
    case kExitUsage: run.status = "usage"; break;
    default: run.status = "unusable";
  }
}

// The resolved state of one run, shared by run_driver's three phases:
// prepare() fills it, run_experiment() adds one experiment's outcome and
// payload, and finish() publishes the outputs.
struct RunState {
  explicit RunState(const DriverOptions& opts) : options(opts) {}

  const PriorRecord* find_prior(const std::string& id) const {
    for (const auto& [prior_id, record] : prior_records)
      if (prior_id == id) return &record;
    return nullptr;
  }

  const DriverOptions& options;
  std::vector<const Experiment*> selected;
  /// The manifest reports this run's telemetry as a delta from here, so
  /// repeated run_driver calls in one process (tests) each see their own.
  obs::CounterSnapshot telemetry_baseline;
  std::vector<std::pair<std::string, PriorRecord>> prior_records;
  std::uint64_t replay_digest = 0;
  std::uint64_t sarif_digest = 0;
  std::uint64_t truth_digest = 0;
  std::size_t threads = 0;
  std::function<std::uint64_t()> clock;
  std::filesystem::path cache_dir;
  std::optional<cache::ResultCache> result_cache;
  /// Experiments read its stages, each computed on first request; every
  /// run computes its own.
  core::Study study;
  std::int64_t start_ns = 0;
  std::vector<std::string> payloads;  ///< the successes', in run order
  bool aborted_fail_fast = false;
  RunOutcome run;
};

// The run's wall seconds and cacheable hit rate so far.
void update_totals(RunState& state) {
  RunOutcome& run = state.run;
  run.total_seconds =
      static_cast<double>(obs::now_ns() - state.start_ns) * 1e-9;
  const std::size_t lookups = run.hits + run.misses;
  run.hit_rate = lookups == 0 ? 0.0
                              : static_cast<double>(run.hits) /
                                    static_cast<double>(lookups);
}

// Serialize the manifest and publish it atomically. Called after every
// experiment (complete = false) and once at the end (complete = true), so
// a crash at any instant leaves the latest consistent snapshot on disk —
// exactly what --resume needs. Returns false when the write failed (or the
// `manifest.write` fault point fired).
bool write_manifest(const RunState& state, bool complete) {
  const DriverOptions& options = state.options;
  const RunOutcome& run = state.run;
  const std::uint64_t generated_at = state.clock();
  const obs::Span span(obs::names::kDriverManifest);
  if (fault::Injector::global().hit("manifest.write") !=
      fault::Action::kNone)
    return false;
  report::JsonWriter json;
  json.begin_object();
  json.field("schema", static_cast<std::uint64_t>(kEngineSchemaVersion));
  json.field("generated_at", generated_at);
  json.field("threads", static_cast<std::uint64_t>(state.threads));
  json.field("cache_dir", state.cache_dir.string());
  json.field("cache_enabled", options.use_cache);
  json.field("refresh", options.refresh);
  json.field("complete", complete);
  if (!options.resume_path.empty())
    json.field("resumed_from", options.resume_path);
  json.key("experiments").begin_array();
  for (const ExperimentOutcome& outcome : run.experiments) {
    json.begin_object();
    json.field("id", outcome.id);
    json.field("key", outcome.key_hex);
    json.field("source", source_name(outcome.source));
    json.field("status",
               outcome.source == ExperimentOutcome::Source::kFailed
                   ? "failed"
                   : "ok");
    if (outcome.resumed) json.field("resumed", true);
    json.field("seconds", outcome.seconds);
    json.field("timestamp", outcome.timestamp);
    if (!outcome.error.empty()) json.field("error", outcome.error);
    if (!outcome.error_class.empty())
      json.field("error_class", outcome.error_class);
    json.key("attempts").begin_array();
    for (const AttemptRecord& attempt : outcome.attempts) {
      json.begin_object();
      json.field("result", attempt.result);
      if (!attempt.error.empty()) json.field("error", attempt.error);
      json.field("seconds", attempt.seconds);
      if (attempt.prior) json.field("prior", true);
      json.end_object();
    }
    json.end_array();
    json.key("artifacts").begin_array();
    for (const ArtifactWrite& artifact : outcome.artifacts) {
      json.begin_object();
      json.field("path", artifact.path);
      json.field("written", artifact.written);
      json.end_object();
    }
    json.end_array();
    json.key("stages").begin_array();
    for (const stats::StageTimer::Stage& stage : outcome.stages) {
      json.begin_object();
      json.field("label", stage.label);
      json.field("seconds", stage.seconds);
      json.field("calls", static_cast<std::uint64_t>(stage.calls));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("summary").begin_object();
  json.field("requested", static_cast<std::uint64_t>(state.selected.size()));
  json.field("completed",
             static_cast<std::uint64_t>(run.experiments.size()));
  json.field("failed", static_cast<std::uint64_t>(run.failed));
  // A snapshot's run has no exit code yet, so it carries no status either.
  if (complete) {
    json.field("status", run.status);
    json.field("exit_code", static_cast<std::int64_t>(run.exit_code));
    json.field("hit_rate_ok", run.hit_rate_ok);
  }
  json.field("hits", static_cast<std::uint64_t>(run.hits));
  json.field("misses", static_cast<std::uint64_t>(run.misses));
  json.field("hit_rate", run.hit_rate);
  json.field("total_seconds", run.total_seconds);
  const cache::CacheStats cache_stats =
      state.result_cache ? state.result_cache->stats() : cache::CacheStats{};
  json.key("cache").begin_object();
  json.field("stores", static_cast<std::uint64_t>(cache_stats.stores));
  json.field("evictions", static_cast<std::uint64_t>(cache_stats.evictions));
  json.field("corrupt_entries",
             static_cast<std::uint64_t>(cache_stats.corrupt_entries));
  json.end_object();
  json.end_object();
  // Full runtime telemetry lives here — the manifest is diagnostic and is
  // never byte-compared between runs, so run-variant values (hits vs
  // misses, retries, trace events) are safe to record. The byte-identical
  // --json-out export instead derives its telemetry from exported content.
  const obs::Registry& registry = obs::Registry::global();
  const obs::CounterSnapshot delta =
      registry.snapshot().since(state.telemetry_baseline);
  json.key("telemetry").begin_object();
  json.key("counters").begin_object();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    json.field(obs::counter_name(counter), delta[counter]);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (std::size_t i = 0; i < obs::kGaugeCount; ++i) {
    const auto gauge = static_cast<obs::Gauge>(i);
    json.field(obs::gauge_name(gauge), registry.value(gauge));
  }
  json.end_object();
  json.end_object();
  json.end_object();
  const bool ok =
      cache::write_file_atomic(options.manifest_path, json.str() + "\n");
  if (ok) obs::count(obs::Counter::kManifestWrites);
  return ok;
}

// The export stays byte-identical between a clean run and a recovered
// (retried / resumed / warm-cache) run: payloads are pure functions of the
// study inputs and the errors array is empty whenever every experiment
// succeeded. The `telemetry` block keeps that property by deriving every
// value from the exported content itself — never from runtime counters,
// which legitimately differ between a cold and a warm run.
bool write_json_export(const std::string& path,
                       const std::vector<std::string>& payloads,
                       const std::vector<ExperimentOutcome>& outcomes,
                       std::uint64_t study_seed) {
  const obs::Span span(obs::names::kDriverExport);
  report::JsonWriter json;
  json.begin_object();
  json.field("schema", static_cast<std::uint64_t>(kEngineSchemaVersion));
  json.field("seed", study_seed);
  json.key("experiments").begin_array();
  for (const std::string& payload : payloads) json.raw_value(payload);
  json.end_array();
  json.key("errors").begin_array();
  std::uint64_t failures = 0;
  for (const ExperimentOutcome& outcome : outcomes) {
    if (outcome.source != ExperimentOutcome::Source::kFailed) continue;
    ++failures;
    json.begin_object();
    json.field("experiment", outcome.id);
    json.field("error_class", outcome.error_class);
    json.field("error", outcome.error);
    json.end_object();
  }
  json.end_array();
  std::uint64_t payload_bytes = 0;
  std::uint64_t artifact_count = 0;
  std::array<std::uint64_t, 65> size_log2{};
  std::size_t top_bucket = 0;
  for (const std::string& payload : payloads) {
    payload_bytes += payload.size();
    const std::size_t bucket =
        static_cast<std::size_t>(std::bit_width(payload.size()));
    ++size_log2[bucket];
    top_bucket = std::max(top_bucket, bucket);
    if (const std::optional<DecodedPayload> decoded = decode_payload(payload))
      artifact_count += decoded->artifacts.size();
  }
  json.key("telemetry").begin_object();
  json.field("experiments", static_cast<std::uint64_t>(payloads.size()));
  json.field("failures", failures);
  json.field("payload_bytes", payload_bytes);
  json.field("artifacts", artifact_count);
  json.key("payload_size_log2").begin_array();
  for (std::size_t b = 0; b <= top_bucket; ++b)
    json.value(size_log2[b]);
  json.end_array();
  json.end_object();
  json.end_object();
  return cache::write_file_atomic(path, json.str() + "\n");
}

// --- attempt execution ----------------------------------------------------

struct AttemptOutcome {
  bool ok = false;
  std::string error;
  std::string error_class;  // "exception" | "injected_fault" | "timeout" | …
  std::string text;
  std::vector<Artifact> artifacts;
};

// One compute attempt: fresh capture stream, fresh context. Attempts share
// only the run's completed stage results (`study`), each a pure function of
// the study config; a stage that failed mid-computation stored nothing. So
// a retried result is byte-identical to a first-try one.
AttemptOutcome run_body(const Experiment& experiment,
                        stats::StageTimer& timer, core::Study& study,
                        const ExperimentContext::StreamRun& stream,
                        const ExperimentContext::CorpusRun& corpus) {
  AttemptOutcome result;
  std::ostringstream capture;
  ExperimentContext context(capture, timer, study);
  context.stream = stream;
  context.corpus = corpus;
  try {
    switch (fault::Injector::global().hit("experiment.body", experiment.id)) {
      case fault::Action::kThrow:
      case fault::Action::kIoError:
      case fault::Action::kCorrupt:
      case fault::Action::kTruncate:
        throw fault::InjectedFault("injected experiment.body fault for " +
                                   experiment.id);
      case fault::Action::kTimeout:
        stats::stall_until_cancelled("experiment.body");
      case fault::Action::kNone:
        break;
    }
    experiment.run(context);
    result.ok = true;
    result.text = std::move(capture).str();
    result.artifacts = std::move(context.artifacts);
  } catch (const stats::Cancelled& e) {
    result.error_class = "timeout";
    result.error = e.what();
  } catch (const fault::InjectedFault& e) {
    result.error_class = "injected_fault";
    result.error = e.what();
  } catch (const std::exception& e) {
    result.error_class = "exception";
    result.error = e.what();
  } catch (...) {
    result.error_class = "unknown";
    result.error = "non-standard exception";
  }
  return result;
}

// Run one attempt, under a token that fires at its --timeout-sec deadline
// when one is set. The token nests under whatever the caller installed (a
// daemon session's deadline, drain and vanished client), so those still
// reach the attempt's loops. A body that returns after its deadline is
// discarded as a timeout, whether or not it polled in time, so the outcome
// does not depend on where the body happened to be when the deadline passed.
AttemptOutcome execute_attempt(const Experiment& experiment,
                               double timeout_sec, stats::StageTimer& timer,
                               core::Study& study,
                               const ExperimentContext::StreamRun& stream,
                               const ExperimentContext::CorpusRun& corpus) {
  if (timeout_sec <= 0.0)
    return run_body(experiment, timer, study, stream, corpus);

  const stats::CancellationToken token(stats::deadline_after(timeout_sec));
  const stats::ScopedCancellationToken install(&token);
  AttemptOutcome result = run_body(experiment, timer, study, stream, corpus);
  if (token.expired()) {
    result = AttemptOutcome{};
    result.error_class = "timeout";
    result.error = "exceeded --timeout-sec " +
                   report::format_value(timeout_sec, 3) + "s";
  }
  return result;
}

}  // namespace

std::string build_payload(const Experiment& experiment,
                          std::uint64_t study_seed, std::string_view text,
                          const std::vector<Artifact>& artifacts) {
  report::JsonWriter json;
  json.begin_object();
  json.field("schema", static_cast<std::uint64_t>(kEngineSchemaVersion));
  json.field("experiment", experiment.id);
  json.field("title", experiment.title);
  json.field("config", experiment.config);
  json.field("seed", study_seed);
  json.field("text", text);
  json.key("artifacts").begin_array();
  for (const Artifact& artifact : artifacts) {
    json.begin_object();
    json.field("name", artifact.name);
    json.field("content", artifact.content);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::optional<DecodedPayload> decode_payload(std::string_view payload) {
  const std::optional<report::JsonDocument> parsed =
      report::parse_json(payload);
  if (!parsed || !parsed->root().is_object()) return std::nullopt;
  const report::JsonValue& doc = parsed->root();
  const report::JsonValue* text = doc.member("text");
  if (text == nullptr || !text->as_string()) return std::nullopt;
  DecodedPayload decoded;
  decoded.text = *text->as_string();
  if (const report::JsonValue* artifacts = doc.member("artifacts")) {
    const report::OptionalView<report::JsonArray> items =
        artifacts->as_array();
    if (!items) return std::nullopt;
    for (const report::JsonValue& item : *items) {
      const report::JsonValue* name = item.member("name");
      const report::JsonValue* content = item.member("content");
      if (name == nullptr || content == nullptr || !name->as_string() ||
          !content->as_string())
        return std::nullopt;
      decoded.artifacts.push_back({std::string(*name->as_string()),
                                   std::string(*content->as_string())});
    }
  }
  return decoded;
}

std::optional<std::vector<std::pair<std::string, PriorRecord>>>
load_resume_manifest(const std::string& path) {
  const std::optional<std::string> raw = cache::read_file(path);
  if (!raw) return std::nullopt;
  const std::optional<report::JsonDocument> parsed = report::parse_json(*raw);
  if (!parsed || !parsed->root().is_object()) return std::nullopt;
  const report::JsonValue* experiments = parsed->root().member("experiments");
  if (experiments == nullptr || !experiments->as_array()) return std::nullopt;
  std::vector<std::pair<std::string, PriorRecord>> records;
  for (const report::JsonValue& item : *experiments->as_array()) {
    // write_manifest gives every entry an id, a status and its attempts;
    // an entry without them is not a run manifest.
    const report::JsonValue* id = item.member("id");
    const report::JsonValue* status = item.member("status");
    const report::JsonValue* attempts = item.member("attempts");
    if (id == nullptr || !id->as_string() || status == nullptr ||
        !status->as_string() || attempts == nullptr || !attempts->as_array())
      return std::nullopt;
    PriorRecord record;
    record.ok = *status->as_string() == "ok";
    for (const report::JsonValue& attempt : *attempts->as_array()) {
      AttemptRecord prior;
      prior.prior = true;
      if (const report::JsonValue* result = attempt.member("result");
          result != nullptr && result->as_string())
        prior.result = *result->as_string();
      if (const report::JsonValue* error = attempt.member("error");
          error != nullptr && error->as_string())
        prior.error = *error->as_string();
      if (const report::JsonValue* seconds = attempt.member("seconds");
          seconds != nullptr && seconds->as_number().has_value())
        prior.seconds = *seconds->as_number();
      record.attempts.push_back(std::move(prior));
    }
    records.emplace_back(std::string(*id->as_string()), std::move(record));
  }
  return records;
}

std::optional<DriverOptions> parse_args(int argc, const char* const* argv,
                                        std::ostream& err,
                                        bool* help_shown) {
  if (help_shown != nullptr) *help_shown = false;
  DriverOptions options;
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto take_value = [&args, &err](std::size_t& i,
                                        std::string_view flag,
                                        std::string& out_value) {
    const std::string& arg = args[i];
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      out_value = arg.substr(eq + 1);
      return true;
    }
    if (i + 1 >= args.size()) {
      err << "vdbench: " << flag << " requires a value\n";
      return false;
    }
    out_value = args[++i];
    return true;
  };
  // Every number goes through stats::parse_uint64/parse_finite: digits
  // only, so "3abc", "-1", "nan" and "inf" are usage errors.
  const auto reject = [&err](std::string_view flag, std::string_view expected,
                             const std::string& value) {
    err << "vdbench: " << flag << " expects " << expected << ", got '"
        << value << "'\n";
    return std::optional<DriverOptions>();
  };
  const auto flag_matches = [](const std::string& arg, std::string_view flag) {
    return arg == flag ||
           (arg.size() > flag.size() && arg.compare(0, flag.size(), flag) == 0 &&
            arg[flag.size()] == '=');
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      err << kUsage;
      if (help_shown != nullptr) *help_shown = true;
      return std::nullopt;
    } else if (arg == "--no-cache") {
      options.use_cache = false;
    } else if (arg == "--refresh") {
      options.refresh = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--list") {
      options.list_only = true;
    } else if (arg == "--fail-fast") {
      options.fail_fast = true;
    } else if (flag_matches(arg, "--experiments")) {
      if (!take_value(i, "--experiments", value)) return std::nullopt;
      options.experiments = value;
    } else if (flag_matches(arg, "--cache-dir")) {
      if (!take_value(i, "--cache-dir", value)) return std::nullopt;
      options.cache_dir = value;
    } else if (flag_matches(arg, "--json-out")) {
      if (!take_value(i, "--json-out", value)) return std::nullopt;
      options.json_out = value;
    } else if (flag_matches(arg, "--trace-out")) {
      if (!take_value(i, "--trace-out", value)) return std::nullopt;
      options.trace_out = value;
    } else if (flag_matches(arg, "--manifest")) {
      if (!take_value(i, "--manifest", value)) return std::nullopt;
      options.manifest_path = value;
    } else if (flag_matches(arg, "--resume")) {
      if (!take_value(i, "--resume", value)) return std::nullopt;
      options.resume_path = value;
    } else if (flag_matches(arg, "--record-log")) {
      if (!take_value(i, "--record-log", value)) return std::nullopt;
      options.record_log = value;
    } else if (flag_matches(arg, "--replay-log")) {
      if (!take_value(i, "--replay-log", value)) return std::nullopt;
      options.replay_log = value;
    } else if (flag_matches(arg, "--sarif-report")) {
      if (!take_value(i, "--sarif-report", value)) return std::nullopt;
      options.sarif_report = value;
    } else if (flag_matches(arg, "--ground-truth")) {
      if (!take_value(i, "--ground-truth", value)) return std::nullopt;
      options.ground_truth = value;
    } else if (flag_matches(arg, "--artifact-dir")) {
      if (!take_value(i, "--artifact-dir", value)) return std::nullopt;
      options.artifact_dir = value;
    } else if (flag_matches(arg, "--threads")) {
      if (!take_value(i, "--threads", value)) return std::nullopt;
      const std::optional<std::uint64_t> n = stats::parse_uint64(value);
      if (!n || *n < 1 || *n > stats::kMaxThreads)
        return reject("--threads", "an integer from 1 to 256", value);
      options.threads = static_cast<std::size_t>(*n);
    } else if (flag_matches(arg, "--retries")) {
      if (!take_value(i, "--retries", value)) return std::nullopt;
      const std::optional<std::uint64_t> n = stats::parse_uint64(value);
      if (!n) return reject("--retries", "a non-negative integer", value);
      options.retries = static_cast<std::size_t>(*n);
    } else if (flag_matches(arg, "--timeout-sec")) {
      if (!take_value(i, "--timeout-sec", value)) return std::nullopt;
      const std::optional<double> x = stats::parse_finite(value);
      if (!x || *x <= 0.0)
        return reject("--timeout-sec", "a positive number", value);
      options.timeout_sec = *x;
    } else if (flag_matches(arg, "--cache-max-bytes")) {
      if (!take_value(i, "--cache-max-bytes", value)) return std::nullopt;
      const std::optional<std::uint64_t> n = stats::parse_uint64(value);
      if (!n || *n == 0)
        return reject("--cache-max-bytes", "a positive integer", value);
      options.cache_max_bytes = *n;
    } else if (flag_matches(arg, "--min-hit-rate")) {
      if (!take_value(i, "--min-hit-rate", value)) return std::nullopt;
      const std::optional<double> x = stats::parse_finite(value);
      if (!x || *x > 1.0)
        return reject("--min-hit-rate", "a value in [0, 1]", value);
      options.min_hit_rate = *x;
    } else {
      err << "vdbench: unknown option '" << arg << "'\n" << kUsage;
      return std::nullopt;
    }
  }
  if (!options.record_log.empty() && !options.replay_log.empty()) {
    err << "vdbench: --record-log and --replay-log are mutually exclusive\n";
    return std::nullopt;
  }
  if (options.sarif_report.empty() != options.ground_truth.empty()) {
    err << "vdbench: --sarif-report and --ground-truth must be given "
           "together\n";
    return std::nullopt;
  }
  return options;
}

namespace {

// A usage error found by prepare(): run_driver prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Digest an input file before anything runs: an unreadable or damaged one
// is a usage error, not something to discover mid-study.
std::uint64_t digest_input(std::string_view flag, const std::string& path) {
  try {
    return stream::file_digest(path);
  } catch (const std::exception& e) {
    throw UsageError("cannot read " + std::string(flag) + " '" + path +
                     "': " + e.what());
  }
}

// Phase 1: the selection, the --resume record and the input digests (each
// failure a UsageError), then the pool, the cache and the run's study.
void prepare(const ExperimentRegistry& registry, RunState& state,
             std::ostream& out) {
  const DriverOptions& options = state.options;
  std::vector<std::string> unknown;
  state.selected = registry.select(options.experiments, unknown);
  if (!unknown.empty()) {
    std::ostringstream message;
    message << "unknown experiment id(s):";
    for (const std::string& id : unknown) message << ' ' << id;
    message << "\nknown ids:";
    for (const Experiment& e : registry.all()) message << ' ' << e.id;
    throw UsageError(message.str());
  }
  if (state.selected.empty()) throw UsageError("no experiments selected");

  // Arm the tracer only when asked (a disarmed span costs one atomic load).
  if (!options.trace_out.empty()) obs::Tracer::global().start();
  state.telemetry_baseline = obs::Registry::global().snapshot();

  if (!options.resume_path.empty()) {
    const obs::Span resume_span(obs::names::kDriverResume, options.resume_path);
    std::optional<std::vector<std::pair<std::string, PriorRecord>>> loaded =
        load_resume_manifest(options.resume_path);
    if (!loaded)
      throw UsageError("cannot resume from '" + options.resume_path +
                       "': missing or not a run manifest");
    state.prior_records = std::move(*loaded);
    std::size_t prior_ok = 0;
    for (const auto& [id, record] : state.prior_records)
      if (record.ok) ++prior_ok;
    out << "vdbench: resuming from " << options.resume_path << " ("
        << prior_ok << " of " << state.prior_records.size()
        << " prior experiment(s) recorded ok)\n";
  }

  // The replay log's digest joins every streaming experiment's cache key,
  // and the external corpus files' digests every corpus experiment's, so
  // runs over two different inputs can never serve each other's results.
  if (!options.replay_log.empty())
    state.replay_digest = digest_input("--replay-log", options.replay_log);
  if (!options.sarif_report.empty()) {
    state.sarif_digest = digest_input("--sarif-report", options.sarif_report);
    state.truth_digest = digest_input("--ground-truth", options.ground_truth);
  }

  if (options.threads > 0) stats::set_global_threads(options.threads);
  state.threads = stats::global_executor().thread_count();
  obs::Registry::global().set(obs::Gauge::kThreads,
                              static_cast<std::uint64_t>(state.threads));

  // Wall-clock reads live in src/obs (vdlint vdl-wallclock): the driver
  // only timestamps cache recency, which is never byte-compared.
  state.clock = options.clock ? options.clock
                              : std::function<std::uint64_t()>(
                                    obs::wall_clock_seconds);

  state.cache_dir = cache::ResultCache::resolve_dir(options.cache_dir);
  if (options.use_cache) {
    try {
      state.result_cache.emplace(cache::ResultCache::Config{
          state.cache_dir, cache::ResultCache::resolve_max_bytes(
                               options.cache_max_bytes)});
    } catch (const std::exception& e) {
      out << "vdbench: cache disabled (" << e.what() << ")\n";
    }
  }

  out << "vdbench: running " << state.selected.size()
      << " experiment(s), threads=" << state.threads << ", cache="
      << (state.result_cache ? state.cache_dir.string() : std::string("off"))
      << (options.refresh ? " (refresh)" : "") << "\n";
  if (fault::Injector::global().armed())
    out << "vdbench: fault injector ARMED\n";
  state.start_ns = obs::now_ns();
}

// Phase 2, once per selected experiment: its key, the cache fetch or the
// supervised compute, the store, its artifacts and its manifest row,
// published at once so a killed run leaves a resumable record.
void run_experiment(RunState& state, const Experiment& experiment,
                    std::ostream& out) {
  const DriverOptions& options = state.options;
  RunOutcome& run = state.run;
  // The experiment's span ends where its seconds are taken, before the
  // manifest write, so the two share their clock readings.
  obs::TimedSpan experiment_span(obs::names::kDriverExperiment, experiment.id);
  ExperimentContext::StreamRun stream_run;
  ExperimentContext::CorpusRun corpus_run;
  std::string key_config = experiment.config;
  if (experiment.streaming) {
    stream_run.record_log = options.record_log;
    stream_run.replay_log = options.replay_log;
    if (!options.replay_log.empty())
      key_config += "|replay=" + cache::to_hex64(state.replay_digest);
  }
  if (experiment.corpus && !options.sarif_report.empty()) {
    corpus_run.sarif_report = options.sarif_report;
    corpus_run.ground_truth = options.ground_truth;
    key_config += "|sarif=" + cache::to_hex64(state.sarif_digest) +
                  "|truth=" + cache::to_hex64(state.truth_digest);
  }
  const cache::CacheKey key{experiment.id, key_config, options.study_seed,
                            kEngineSchemaVersion};
  ExperimentOutcome outcome;
  outcome.id = experiment.id;
  outcome.key_hex = key.hex();
  outcome.timestamp = state.clock();
  const PriorRecord* prior = state.find_prior(experiment.id);
  if (prior != nullptr) {
    outcome.resumed = true;
    outcome.attempts = prior->attempts;
  }

  out << "\n=== " << experiment.id << " — " << experiment.title << "\n";
  if (prior != nullptr && prior->ok)
    out << "resume: recorded ok in prior run, replaying from cache\n";

  // While recording, a streaming experiment must actually run — a cache
  // hit would replay the text but skip producing the log.
  const bool recording = experiment.streaming && !options.record_log.empty();
  std::optional<DecodedPayload> replay;
  std::string payload;
  if (state.result_cache.has_value() && experiment.cacheable &&
      !options.refresh && !recording) {
    // A read failure of any kind (including injected ones) degrades to
    // recompute, never to a run failure.
    try {
      if (std::optional<std::string> cached =
              state.result_cache->fetch(key, outcome.timestamp)) {
        replay = decode_payload(*cached);
        if (replay) payload = std::move(*cached);
        // A checksummed entry that fails structural decode means the
        // payload schema moved without a version bump; recompute.
      }
    } catch (const std::exception& e) {
      out << "warning: cache read failed (" << e.what()
          << "), recomputing\n";
    }
  }

  stats::StageTimer timer;
  if (replay) {
    outcome.source = ExperimentOutcome::Source::kCacheHit;
    {
      const auto scope = timer.scope(obs::names::kPhaseCacheReplay);
      if (!options.quiet) out << replay->text;
      outcome.artifacts =
          write_artifacts(replay->artifacts, options.artifact_dir, out);
    }
    ++run.hits;
    obs::count(obs::Counter::kExperimentsReplayed);
  } else {
    // Compute under the supervisor: up to 1 + retries attempts, each a
    // fresh context (same seed ⇒ byte-identical result), each optionally
    // under its own --timeout-sec deadline.
    AttemptOutcome attempt;
    for (std::size_t attempt_no = 0; attempt_no <= options.retries;
         ++attempt_no) {
      // A cancelled run (a daemon session's deadline, a drain, a vanished
      // client) starts no further attempt: a body that polls would fail
      // at once, and one that never polls would compute in full for
      // nobody. An experiment that never started fails as a body that is
      // cancelled at its first poll does. An attempt's own --timeout-sec
      // token is uninstalled by now, so its timeouts still retry.
      if (stats::cancellation_requested()) {
        if (attempt_no == 0) {
          attempt.error_class = "timeout";
          attempt.error = "the run was cancelled before the experiment "
                          "started";
        }
        break;
      }
      if (attempt_no > 0) obs::count(obs::Counter::kRetries);
      stats::StageTimer attempt_timer;
      obs::TimedSpan attempt_span(obs::names::kDriverAttempt, experiment.id);
      attempt = execute_attempt(experiment, options.timeout_sec,
                                attempt_timer, state.study, stream_run,
                                corpus_run);
      const double attempt_seconds = attempt_span.stop();
      outcome.attempts.push_back({attempt.ok ? "ok" : attempt.error_class,
                                  attempt.error, attempt_seconds, false});
      timer = std::move(attempt_timer);
      if (attempt.ok) break;
      out << "attempt " << (attempt_no + 1) << "/" << (options.retries + 1)
          << " failed [" << attempt.error_class << "]: " << attempt.error
          << "\n";
    }

    if (!attempt.ok) {
      outcome.source = ExperimentOutcome::Source::kFailed;
      outcome.error = attempt.error;
      outcome.error_class = attempt.error_class;
      out << "FAILED after " << outcome.attempts.size() << " attempt(s) ["
          << outcome.error_class << "]: " << outcome.error << "\n";
      ++run.failed;
      obs::count(obs::Counter::kExperimentsFailed);
    } else {
      obs::count(obs::Counter::kExperimentsComputed);
      payload = build_payload(experiment, options.study_seed, attempt.text,
                              attempt.artifacts);
      if (!options.quiet) out << attempt.text;
      outcome.artifacts =
          write_artifacts(attempt.artifacts, options.artifact_dir, out);
      if (state.result_cache.has_value() && experiment.cacheable) {
        outcome.source = ExperimentOutcome::Source::kComputed;
        const auto scope = timer.scope(obs::names::kPhaseCacheStore);
        try {
          if (!state.result_cache->store(key, payload, outcome.timestamp))
            out << "warning: could not persist cache entry\n";
        } catch (const std::exception& e) {
          out << "warning: could not persist cache entry (" << e.what()
              << ")\n";
        }
        ++run.misses;
      } else {
        outcome.source = ExperimentOutcome::Source::kBypass;
      }
    }
  }

  outcome.seconds = experiment_span.stop();
  outcome.stages = timer.stages();
  if (outcome.source == ExperimentOutcome::Source::kCacheHit) {
    outcome.attempts.push_back({"ok", "", outcome.seconds, false});
    out << "served from cache (key=" << outcome.key_hex << ", "
        << report::format_value(outcome.seconds, 3) << "s)\n";
  } else if (outcome.source != ExperimentOutcome::Source::kFailed) {
    print_stage_table(outcome.stages, state.threads, out);
  }
  const bool failed = outcome.source == ExperimentOutcome::Source::kFailed;
  if (!failed) state.payloads.push_back(std::move(payload));
  run.experiments.push_back(std::move(outcome));

  update_totals(state);
  if (!options.manifest_path.empty() &&
      !write_manifest(state, /*complete=*/false))
    out << "warning: could not write run manifest\n";

  if (failed && options.fail_fast) {
    out << "vdbench: --fail-fast, aborting after first failure\n";
    state.aborted_fail_fast = true;
  }
}

// Phase 3: the summary, the outputs — the export, the trace and the final
// manifest — and the exit code.
void finish(RunState& state, std::ostream& out) {
  const DriverOptions& options = state.options;
  RunOutcome& run = state.run;
  update_totals(state);

  out << "\n=== run summary: " << run.experiments.size()
      << " experiment(s) in " << report::format_value(run.total_seconds, 3)
      << "s — " << run.hits << " cache hit(s), " << run.misses
      << " miss(es)";
  if (run.hits + run.misses > 0)
    out << " (hit rate " << report::format_percent(run.hit_rate, 1) << ")";
  if (run.failed > 0) out << ", " << run.failed << " FAILED";
  out << "\n";

  // The hit-rate assertion is evaluated on every run — a partial run with
  // a cold cache reports both conditions.
  if (options.min_hit_rate >= 0.0 && run.hit_rate < options.min_hit_rate) {
    run.hit_rate_ok = false;
    out << "vdbench: cache hit rate "
        << report::format_percent(run.hit_rate, 1) << " below required "
        << report::format_percent(options.min_hit_rate, 1) << "\n";
  }

  // Each requested output is judged by its last write, as its writer
  // reports it; any one unwritten is named here and makes the run
  // unusable, so exit 3 still promises an export.
  std::size_t unwritten = 0;
  const auto lose = [&](std::string_view flag, const std::string& path) {
    out << "vdbench: could not write " << flag << " " << path << "\n";
    ++unwritten;
  };
  for (const ExperimentOutcome& outcome : run.experiments)
    for (const ArtifactWrite& artifact : outcome.artifacts)
      if (!artifact.written) lose("--artifact-dir", artifact.path);

  // A degraded run still exports: successes plus per-experiment error
  // records, so partial studies remain inspectable.
  if (!options.json_out.empty()) {
    if (write_json_export(options.json_out, state.payloads, run.experiments,
                          options.study_seed))
      out << "wrote JSON export to " << options.json_out << "\n";
    else
      lose("--json-out", options.json_out);
  }

  // Render the trace once the fork-join loops are quiescent and the
  // per-thread buffers are safe to merge.
  if (!options.trace_out.empty()) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.stop();
    if (cache::write_file_atomic(options.trace_out, tracer.render_json()))
      out << "wrote trace (" << tracer.event_count() << " events) to "
          << options.trace_out << "\n";
    else
      lose("--trace-out", options.trace_out);
  }

  if (state.aborted_fail_fast || unwritten > 0) {
    set_exit_code(run, kExitUnusable);
  } else if (run.failed == 0) {
    set_exit_code(run, run.hit_rate_ok ? kExitOk : kExitUnusable);
  } else {
    set_exit_code(run, run.failed == run.experiments.size() ? kExitUnusable
                                                            : kExitPartial);
  }
  // The final manifest is written last, so the exit code it records is the
  // run's — unless this very write fails.
  if (!options.manifest_path.empty()) {
    if (write_manifest(state, /*complete=*/true)) {
      out << "wrote run manifest to " << options.manifest_path << "\n";
    } else {
      lose("--manifest", options.manifest_path);
      set_exit_code(run, kExitUnusable);
    }
  }

  if (run.failed > 0 || unwritten > 0)
    out << "vdbench: run " << run.status << " (" << run.failed << " of "
        << run.experiments.size() << " experiment(s) failed, " << unwritten
        << " requested output(s) not written)\n";
}

}  // namespace

RunOutcome run_driver(const ExperimentRegistry& registry,
                      const DriverOptions& options, std::ostream& out) {
  if (options.list_only) {
    report::Table table({"id", "cacheable", "title"});
    for (const Experiment& e : registry.all())
      table.add_row({e.id, e.cacheable ? "yes" : "no", e.title});
    table.print(out);
    return {};
  }

  RunState state(options);
  try {
    prepare(registry, state, out);
  } catch (const UsageError& e) {
    out << "vdbench: " << e.what() << "\n";
    if (!options.trace_out.empty()) obs::Tracer::global().stop();
    set_exit_code(state.run, kExitUsage);
    return state.run;
  }
  for (const Experiment* experiment : state.selected) {
    run_experiment(state, *experiment, out);
    if (state.aborted_fail_fast) break;
  }
  finish(state, out);
  return std::move(state.run);
}

int vdbench_main(int argc, const char* const* argv,
                 const ExperimentRegistry& registry,
                 std::uint64_t study_seed) {
  try {
    if (fault::Injector::global().arm_from_env())
      std::cerr << "vdbench: fault injector armed from VDBENCH_FAULTS\n";
  } catch (const std::invalid_argument& e) {
    std::cerr << "vdbench: " << e.what() << "\n";
    return kExitUsage;
  }
  bool help_shown = false;
  std::optional<DriverOptions> options =
      parse_args(argc, argv, std::cerr, &help_shown);
  if (!options) return help_shown ? kExitOk : kExitUsage;
  options->study_seed = study_seed;
  return run_driver(registry, *options, std::cout).exit_code;
}

}  // namespace vdbench::cli
