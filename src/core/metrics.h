// The metric catalogue: the "large set of metrics" the DSN'15 study gathers
// (stage 1 of the paper), with per-metric metadata used by the property
// analysis (stage 1), the scenario analysis (stage 2) and the MCDA
// validation (stage 3).
//
// Every metric is computed from an EvalContext — the confusion matrix of a
// benchmark run plus the scenario cost model and operational measurements.
//
// Degenerate-input policy (single source of truth: compute_metric is the
// only spelling of each formula, and core::BatchEvaluator agrees with it
// bit for bit because it calls compute_all_metrics):
//  - Indeterminate 0/0 forms are NaN ("the benchmark gives no answer"):
//    every basic rate whose denominator is empty (PPV with TP+FP == 0,
//    TPR with no actual positives, ...), accuracy/error on an empty
//    matrix, MCC and kappa on single-class predictions, LR+/LR-/DOR with
//    zero numerator AND zero denominator, cost metrics with an all-zero
//    worst case, and operational metrics with missing measurements.
//  - Unbounded ratios with a positive numerator over a zero denominator
//    are +infinity — the value the metric's declared range advertises:
//    LR+ with FPR == 0 < TPR, LR- with TNR == 0 < FNR, DOR with
//    FP*FN == 0 < TP*TN. Infinity still counts as undefined for ranking
//    (metric_utility and the property assessor filter on isfinite), so
//    "perfectly separable run" and "no answer" are both excluded there.
//  - F-family scores with P == R == 0 are 0, not NaN: the tool made
//    predictions and every one was wrong — a legitimate worst score.
// Callers decide how undefinedness is scored (the property assessor
// treats it as a first-class metric weakness).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/confusion.h"

namespace vdbench::core {

/// Every metric in the catalogue. Order is stable and is the canonical
/// presentation order of the catalogue table (experiment E1).
enum class MetricId {
  // Information-retrieval family
  kPrecision,
  kRecall,
  kFMeasure,     ///< F1
  kFHalf,        ///< F0.5 (precision-weighted)
  kF2,           ///< F2 (recall-weighted)
  kJaccard,      ///< a.k.a. critical success index
  kFowlkesMallows,
  // Diagnostic-testing family
  kSpecificity,
  kNpv,
  kFpRate,
  kFnRate,
  kFdRate,
  kFoRate,
  kLrPlus,
  kLrMinus,
  kDiagnosticOddsRatio,
  kPrevalenceThreshold,
  // Aggregate / agreement family
  kAccuracy,
  kErrorRate,
  kBalancedAccuracy,
  kGMean,
  kMcc,
  kInformedness,  ///< Youden's J
  kMarkedness,
  kKappa,
  kAuc,
  // Cost-based family
  kNormalizedExpectedCost,
  kWeightedBalancedAccuracy,
  // Operational family (descriptive or resource-oriented)
  kPrevalence,
  kAlarmDensity,       ///< reports per kLoC
  kAnalysisThroughput, ///< kLoC per second
  kTimePerDetection,   ///< seconds per true positive
};

/// Number of metrics in the catalogue.
inline constexpr std::size_t kMetricCount = 32;

/// Which direction is "better" when ranking tools by this metric.
enum class Direction {
  kHigherBetter,
  kLowerBetter,
  kNone,  ///< descriptive metric; induces no quality ordering
};

/// Family the metric comes from (catalogue grouping).
enum class MetricCategory {
  kInformationRetrieval,
  kDiagnostic,
  kAggregate,
  kCostBased,
  kOperational,
};

/// Everything a benchmark run provides for metric computation.
struct EvalContext {
  ConfusionMatrix cm;
  /// Relative cost of missing a vulnerability (used by cost-based metrics).
  double cost_fn = 1.0;
  /// Relative cost of a false alarm.
  double cost_fp = 1.0;
  /// Wall-clock analysis time; NaN when not measured.
  double analysis_seconds = std::numeric_limits<double>::quiet_NaN();
  /// Workload size in thousands of lines of code; NaN when not measured.
  double kloc = std::numeric_limits<double>::quiet_NaN();
  /// Area under the ROC curve computed from confidence-ranked reports;
  /// NaN when the tool emits no confidences.
  double auc = std::numeric_limits<double>::quiet_NaN();
};

/// Static catalogue entry for one metric.
struct MetricInfo {
  MetricId id;
  std::string_view key;      ///< stable machine name, e.g. "precision"
  std::string_view name;     ///< display name
  std::string_view formula;  ///< formula as printed in the catalogue table
  MetricCategory category;
  Direction direction;
  double range_lo;  ///< -inf allowed
  double range_hi;  ///< +inf allowed
  /// Analytically invariant to workload prevalence for a detector with
  /// fixed (sensitivity, fallout)? A central attribute in the paper's
  /// analysis: non-invariant metrics cannot be compared across workloads.
  bool prevalence_invariant;
  /// Requires a true-negative frame (problematic in vulnerability
  /// detection, where "non-vulnerable sites" must be imposed).
  bool needs_tn;
  /// Uses the scenario cost model (cost_fn / cost_fp).
  bool cost_aware;
  /// Declared qualitative attributes in [0,1], encoding the paper's
  /// expert assessment dimensions that cannot be measured empirically.
  double interpretability;
  double collection_ease;
};

/// Catalogue entry for a metric. Never fails: every MetricId has an entry.
[[nodiscard]] const MetricInfo& metric_info(MetricId id);

/// All metrics, in canonical catalogue order.
[[nodiscard]] std::span<const MetricId> all_metrics();

/// Metrics that induce a quality ordering (direction != kNone); these are
/// the candidates considered by scenario analysis and MCDA.
[[nodiscard]] std::vector<MetricId> ranking_metrics();

/// Look up a metric by its stable key (e.g. "mcc"); nullopt if unknown.
[[nodiscard]] std::optional<MetricId> metric_from_key(std::string_view key);

/// Compute a metric value. Returns NaN when the metric is undefined for
/// this context (degenerate confusion counts or missing operational data).
[[nodiscard]] double compute_metric(MetricId id, const EvalContext& ctx);

/// Compute every catalogue metric for one context into `out` (size
/// kMetricCount, catalogue order), without allocating. Hot loops pair this
/// with a reused buffer or an arena span; throws std::invalid_argument when
/// out.size() != kMetricCount.
void compute_all_metrics(const EvalContext& ctx, std::span<double> out);

/// Map a metric value to a "higher is better" utility for ranking:
/// identity for kHigherBetter, negation for kLowerBetter. Returns NaN for
/// kNone-direction metrics and undefined values.
[[nodiscard]] double metric_utility(MetricId id, double value);

/// True when the metric has a finite declared range.
[[nodiscard]] bool metric_bounded(MetricId id);

/// Category display name.
[[nodiscard]] std::string_view category_name(MetricCategory category);

/// Direction display name ("higher", "lower", "n/a").
[[nodiscard]] std::string_view direction_name(Direction direction);

}  // namespace vdbench::core
