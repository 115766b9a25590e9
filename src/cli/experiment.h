// Experiment registry for the unified `vdbench` study driver.
//
// Before this layer every experiment binary owned its own main(), its own
// timing boilerplate and its own artifact files. Now each experiment is a
// value: an id, a one-line title, a config fingerprint (what makes its
// result unique, for cache addressing) and a run function that writes its
// report to the context stream. The driver owns everything else — argument
// parsing, the result cache, timing, the run manifest and JSON export.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "stats/parallel.h"
#include "stats/timer.h"

namespace vdbench::core {
class Study;
}  // namespace vdbench::core

namespace vdbench::cli {

/// Version of the experiment payload schema AND of the experiments' output
/// contract. Bump whenever any experiment's rendered output or payload
/// layout changes; every cache key embeds it, so a bump invalidates all
/// previously cached results at once.
inline constexpr std::uint32_t kEngineSchemaVersion = 3;

/// A machine-readable side file an experiment produces (e.g. e13's
/// campaign JSON). Artifacts travel inside the cached payload, so a cache
/// hit rewrites them without recomputation.
struct Artifact {
  std::string name;     ///< file name, written into the artifact directory
  std::string content;
};

/// Everything an experiment touches while running. Experiments must treat
/// `out` as their only stdout and must not read clocks or environment
/// themselves — that is what keeps their output cacheable.
struct ExperimentContext {
  ExperimentContext(std::ostream& out_stream, stats::StageTimer& stage_timer,
                    core::Study& run_study)
      : out(out_stream), timer(stage_timer), study(run_study) {}

  /// Record/replay endpoints for streaming experiments, filled by the
  /// driver from --record-log / --replay-log. At most one is non-empty.
  /// Non-streaming experiments must ignore this block; the paths stay out
  /// of experiment output so recorded and replayed runs export
  /// byte-identically.
  struct StreamRun {
    std::string record_log;  ///< append the produced stream to this log
    std::string replay_log;  ///< source the stream from this log
  };

  /// External-corpus inputs for corpus experiments, filled by the driver
  /// from --sarif-report / --ground-truth (both set or both empty; the
  /// driver enforces the pairing). The driver folds both files' content
  /// digests into the cache key, so the paths themselves stay out of
  /// experiment output and cached runs replay byte-identically.
  struct CorpusRun {
    std::string sarif_report;  ///< SARIF 2.1.0 report to score
    std::string ground_truth;  ///< ground-truth manifest naming the sites
  };

  std::ostream& out;
  stats::StageTimer& timer;
  /// The run's study: one per run_driver call, shared by every experiment
  /// and attempt of that run. Experiments read stages 1–3 from it instead
  /// of computing them, so each stage is computed at most once per run.
  core::Study& study;
  std::vector<Artifact> artifacts;
  StreamRun stream;
  CorpusRun corpus;

  void add_artifact(std::string name, std::string content) {
    artifacts.push_back({std::move(name), std::move(content)});
  }

  /// True when an installed cancellation token has fired: the attempt's
  /// --timeout-sec deadline, or a daemon session's deadline, drain or
  /// vanished client. The parallel engine polls this between task claims
  /// automatically; bodies with long serial sections may poll it themselves
  /// and throw stats::Cancelled to stop sooner.
  [[nodiscard]] bool cancellation_requested() const noexcept {
    return stats::cancellation_requested();
  }
};

struct Experiment {
  std::string id;      ///< short key, e.g. "e7"
  std::string title;   ///< one-line description for --list
  /// Serialized configuration: every parameter that determines the result.
  /// Together with (id, study seed, schema version) it forms the cache key.
  std::string config;
  /// False for experiments whose output must not be cached (the "probe"
  /// fault-drill target); they always run fresh and are excluded from the
  /// "all" selection.
  bool cacheable = true;
  std::function<void(ExperimentContext&)> run;
  /// True for experiments built on the streaming pipeline (src/stream).
  /// Only these consult ExperimentContext::stream; for them the driver
  /// folds the replay log's content digest into the cache key and skips
  /// cache lookups while recording (a hit would skip log production).
  bool streaming = false;
  /// True for experiments that accept an external corpus (src/corpus).
  /// Only these consult ExperimentContext::corpus; for them the driver
  /// folds the SARIF report's and manifest's content digests into the
  /// cache key, so changing either file changes the cache address.
  bool corpus = false;
};

/// Ordered collection of experiments; ids are unique.
class ExperimentRegistry {
 public:
  /// Throws std::logic_error on a duplicate or empty id.
  void add(Experiment experiment);

  [[nodiscard]] const Experiment* find(std::string_view id) const;
  [[nodiscard]] const std::vector<Experiment>& all() const noexcept {
    return experiments_;
  }

  /// Expand a comma-separated selection ("e2,e6,e13") into experiments, in
  /// registry order and deduplicated. "all" (or empty) selects every
  /// cacheable experiment. Unknown ids land in `unknown`.
  [[nodiscard]] std::vector<const Experiment*> select(
      std::string_view csv, std::vector<std::string>& unknown) const;

 private:
  std::vector<Experiment> experiments_;
};

}  // namespace vdbench::cli
