// The unified `vdbench` study driver.
//
// One entry point runs any subset of the reconstructed study's experiments
// through the content-addressed result cache: misses compute on the
// deterministic parallel engine and are persisted; hits replay the stored
// payload (report text + artifacts) from disk. A resilience supervisor
// wraps every computation: failed experiments retry at once (a retried
// attempt is byte-identical to a first-try run — every stage derives its
// RNG state from the study seed, and attempts share only completed stages
// of the run's core::Study, so waiting would buy nothing), an attempt runs
// under a cancellation token carrying its wall-clock deadline, which stops
// an overrunning experiment through the executor's cooperative polls, and
// failures degrade gracefully — the study continues, the failure is
// recorded, and the exit code reports the run's usability. The run manifest is rewritten atomically after every
// experiment, so a crash at any instant leaves a parseable record that
// --resume can continue from.
//
// Exit-code contract (the complete manifest's summary.status names it):
//   0  ok: every selected experiment succeeded, --min-hit-rate held, and
//      every requested output was written
//   3  partial: some experiments failed after retries, but at least one
//      succeeded — the exported JSON holds the successes + error records
//   1  unusable: every experiment failed, --min-hit-rate violated,
//      --fail-fast aborted on the first failure, or a requested output
//      (--json-out, --manifest, --trace-out, an artifact) was not written
//   2  usage: bad flags, unknown ids, unreadable --resume manifest or input
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "cli/experiment.h"

namespace vdbench::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUnusable = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitPartial = 3;

struct DriverOptions {
  /// Comma-separated experiment selection; "all" = every cacheable one.
  std::string experiments = "all";
  /// Worker count for the parallel engine; 0 keeps the VDBENCH_THREADS /
  /// hardware default. Results are identical either way — this only
  /// changes wall clock.
  std::size_t threads = 0;
  /// Cache directory; empty resolves VDBENCH_CACHE_DIR then .vdbench-cache.
  std::string cache_dir;
  /// LRU size cap; 0 resolves VDBENCH_CACHE_MAX_BYTES then 256 MiB.
  std::uint64_t cache_max_bytes = 0;
  bool use_cache = true;    ///< --no-cache: bypass entirely (no reads/writes)
  bool refresh = false;     ///< --refresh: recompute and overwrite entries
  bool quiet = false;       ///< suppress experiment report text
  bool list_only = false;   ///< --list: print the registry and exit
  std::string json_out;     ///< combined JSON export path (empty = none)
  /// Chrome/Perfetto trace-event JSON output path; empty disables tracing
  /// entirely (a disarmed span site costs one relaxed atomic load).
  std::string trace_out;
  std::string manifest_path = "vdbench_manifest.json";  ///< empty = none
  std::string artifact_dir;  ///< where experiment artifacts land ("" = cwd)
  /// Fail the run (exit 1) when the cacheable hit rate lands below this;
  /// negative disables the assertion. CI's warm-cache smoke uses 0.9.
  /// Evaluated on every run — a partial run reports both its failures and
  /// a cold cache instead of one masking the other.
  double min_hit_rate = -1.0;
  /// Extra compute attempts per experiment after a failure (exception,
  /// injected fault, or timeout), each started at once. Each retry re-runs
  /// the experiment with a fresh context — same seed, sharing only the
  /// run's completed study stages — so a retried result is byte-identical
  /// to a first-try one. A run whose installed token has fired stops
  /// retrying.
  std::size_t retries = 0;
  /// Per-experiment wall-clock budget in seconds; <= 0 disables. Each
  /// attempt runs under a cancellation token with this deadline, nested
  /// under any token the caller installed; an attempt that passes it is
  /// classified as "timeout" (then retried, if retries remain).
  double timeout_sec = 0.0;
  /// Abort the study on the first experiment that fails after retries
  /// (exit 1), restoring the pre-supervisor behaviour.
  bool fail_fast = false;
  /// Path to a previous run's manifest: experiments it records as
  /// succeeded replay from the cache (their payloads are content-addressed
  /// there), failed or missing ones run again, and the prior attempts'
  /// timings carry into the new manifest. Empty = fresh run.
  std::string resume_path;
  /// Record every streaming experiment's produced chunks into this report
  /// log (--record-log). Recording skips cache lookups for streaming
  /// experiments so the log is always actually produced. Empty = off.
  std::string record_log;
  /// Source streaming experiments' chunks from this recorded log instead
  /// of generating them (--replay-log). The log's content digest joins the
  /// cache key, so replays of different logs can never alias. Mutually
  /// exclusive with record_log. Empty = off.
  std::string replay_log;
  /// External SARIF report for corpus experiments (--sarif-report). Must
  /// be paired with ground_truth; both files' content digests join the
  /// cache key of every corpus experiment, so a changed report can never
  /// serve a stale cached result. Empty = synthetic corpora only.
  std::string sarif_report;
  /// Ground-truth manifest naming the scored sites (--ground-truth).
  /// Paired with sarif_report. Empty = synthetic corpora only.
  std::string ground_truth;
  /// Study seed baked into the experiments; becomes part of every cache
  /// key so a seed change can never serve stale results.
  std::uint64_t study_seed = 0;
  /// Timestamp source for cache LRU recency and manifest entries
  /// (seconds); injectable so tests are deterministic. Defaults to the
  /// system clock when null.
  std::function<std::uint64_t()> clock;
};

/// One compute (or replay) attempt of one experiment, as recorded in the
/// manifest. `result` is "ok" or the error class: "exception",
/// "injected_fault", "timeout", "unknown".
struct AttemptRecord {
  std::string result;
  std::string error;      ///< empty when result == "ok"
  double seconds = 0.0;
  bool prior = false;     ///< carried over from a --resume'd manifest
};

/// One artifact file written for an experiment, as recorded in the manifest.
struct ArtifactWrite {
  std::string path;
  bool written = false;  ///< what the writer reported
};

struct ExperimentOutcome {
  std::string id;
  std::string key_hex;
  enum class Source { kComputed, kCacheHit, kBypass, kFailed } source =
      Source::kComputed;
  double seconds = 0.0;
  std::uint64_t timestamp = 0;
  std::vector<stats::StageTimer::Stage> stages;
  std::string error;        ///< non-empty when source == kFailed
  std::string error_class;  ///< error taxonomy when source == kFailed
  /// Every attempt this run made (and, under --resume, the prior run's
  /// attempts first, flagged prior). A cache replay records one "ok" row.
  std::vector<AttemptRecord> attempts;
  std::vector<ArtifactWrite> artifacts;  ///< this run's artifact writes
  bool resumed = false;  ///< had a record in the --resume manifest
};

struct RunOutcome {
  int exit_code = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;  ///< cacheable lookups that had to compute
  std::size_t failed = 0;  ///< experiments that failed after retries
  double hit_rate = 0.0;
  bool hit_rate_ok = true;  ///< --min-hit-rate assertion (true when unset)
  double total_seconds = 0.0;
  /// "ok" | "partial" | "unusable" | "usage": the name of exit_code.
  std::string status = "ok";
  std::vector<ExperimentOutcome> experiments;
};

/// Parse argv into options. Returns nullopt after printing a message to
/// `err` on a usage error (or after printing help for --help, in which
/// case `*help_shown` is set).
[[nodiscard]] std::optional<DriverOptions> parse_args(
    int argc, const char* const* argv, std::ostream& err, bool* help_shown);

/// Run the selected experiments. All human-readable output goes to `out`.
[[nodiscard]] RunOutcome run_driver(const ExperimentRegistry& registry,
                                    const DriverOptions& options,
                                    std::ostream& out);

/// main() body for the vdbench binary. Arms the global fault injector from
/// VDBENCH_FAULTS (a malformed spec is a usage error, exit 2).
[[nodiscard]] int vdbench_main(int argc, const char* const* argv,
                               const ExperimentRegistry& registry,
                               std::uint64_t study_seed);

/// Serialize one experiment result into the cached/exported JSON payload.
[[nodiscard]] std::string build_payload(const Experiment& experiment,
                                        std::uint64_t study_seed,
                                        std::string_view text,
                                        const std::vector<Artifact>& artifacts);

struct DecodedPayload {
  std::string text;
  std::vector<Artifact> artifacts;
};

/// Parse a payload back; nullopt when it is not a structurally valid
/// payload document (treated as cache corruption by the driver).
[[nodiscard]] std::optional<DecodedPayload> decode_payload(
    std::string_view payload);

/// Per-experiment record loaded back from a --resume manifest.
struct PriorRecord {
  bool ok = false;
  std::vector<AttemptRecord> attempts;  ///< flagged prior = true
};

/// Parse a run manifest into id → prior record; nullopt when the file is
/// missing or not a structurally valid manifest.
[[nodiscard]] std::optional<std::vector<std::pair<std::string, PriorRecord>>>
load_resume_manifest(const std::string& path);

}  // namespace vdbench::cli
