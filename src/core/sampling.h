// Abstract detector model used by the analytical experiments.
//
// For the metric-property and scenario analyses (stages 1-2 of the DSN'15
// study) a detection tool is fully characterised by its operating point:
// sensitivity (probability of reporting a real vulnerability) and fallout
// (probability of raising an alarm on a clean candidate site). Sampling a
// benchmark run is then two binomial draws. The full ecosystem simulator
// (vdsim) refines this with per-vulnerability-class profiles, confidences
// and timing; this header is the minimal model the core analyses need.
#pragma once

#include <cstdint>

#include "core/confusion.h"
#include "core/metrics.h"
#include "stats/rng.h"

namespace vdbench::core {

/// Operating point of an abstract detector.
struct DetectorProfile {
  double sensitivity = 0.0;  ///< P(report | vulnerable site), in [0,1]
  double fallout = 0.0;      ///< P(report | clean site), in [0,1]

  /// Validates ranges; throws std::invalid_argument when out of [0,1].
  void validate() const;
};

/// Benchmark-run sampler: draws a confusion matrix for a detector on a
/// workload of `total` candidate sites at the given prevalence. The number
/// of vulnerable sites is fixed at round(prevalence*total) — benchmarks
/// control their workload — while detection outcomes are stochastic.
ConfusionMatrix sample_confusion(const DetectorProfile& detector,
                                 double prevalence, std::uint64_t total,
                                 stats::Rng& rng);

/// Expected per-site misclassification cost of a detector under the given
/// cost model: prevalence*(1-sens)*cost_fn + (1-prevalence)*fallout*cost_fp.
/// This is the *ground-truth quality* of a tool in a scenario — the
/// quantity a good benchmark metric should order tools by.
double expected_cost(const DetectorProfile& detector, double prevalence,
                     double cost_fn, double cost_fp);

/// ROC area of a detector under the equal-variance binormal model:
/// AUC = Phi((z(sensitivity) - z(fallout)) / sqrt(2)). Returns NaN when
/// either rate is exactly 0 or 1 (the z-transform diverges), mirroring how
/// AUC becomes unobtainable from degenerate benchmark runs.
double binormal_auc(double sensitivity, double fallout);

/// Physical constants of the abstract benchmark used to derive operational
/// measurements (analysis time, code size) from a confusion matrix so the
/// operational metrics participate in the analytical experiments.
struct AbstractBenchmarkSettings {
  double sites_per_kloc = 20.0;   ///< candidate analysis sites per kLoC
  double kloc_per_second = 1.0;   ///< analysis speed of the abstract tool
};

/// Wrap a confusion matrix into a full evaluation context for the abstract
/// detector model: attaches the cost model, derives kLoC and analysis time
/// from the workload size, and fills AUC from the empirical operating point
/// via the binormal model.
EvalContext make_abstract_context(const ConfusionMatrix& cm, double cost_fn,
                                  double cost_fp,
                                  const AbstractBenchmarkSettings& settings = {});

}  // namespace vdbench::core
