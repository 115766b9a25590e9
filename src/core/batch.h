// Structure-of-arrays view of N evaluation contexts and a whole-catalogue
// evaluator over it.
//
// The module remains for one reason: perfbench's kernel probe
// (perfbench/src/probes.cpp) times the catalogue through a ConfusionBatch
// and BatchEvaluator::evaluate_all, and compares the plane with
// compute_all_metrics bit for bit. Every other caller uses compute_metric
// or compute_all_metrics on the contexts it already holds.
//
// evaluate_all is a loop over compute_all_metrics, so batch equals scalar
// by construction: compute_metric (core/metrics.cpp) is the only spelling
// of each metric formula and of the degenerate-input policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/metrics.h"
#include "stats/arena.h"

namespace vdbench::core {

/// N evaluation contexts in SoA layout. All pointers reference arrays of
/// `size` elements owned elsewhere (typically a stats::Arena); a batch is
/// a cheap view, valid until its backing memory is reset.
struct ConfusionBatch {
  std::size_t size = 0;
  const std::uint64_t* tp = nullptr;
  const std::uint64_t* fp = nullptr;
  const std::uint64_t* tn = nullptr;
  const std::uint64_t* fn = nullptr;
  const double* cost_fn = nullptr;
  const double* cost_fp = nullptr;
  const double* analysis_seconds = nullptr;
  const double* kloc = nullptr;
  const double* auc = nullptr;
};

/// Gather an AoS span of contexts into a fresh SoA batch whose arrays are
/// allocated from `arena`. The batch is valid until arena.reset().
[[nodiscard]] ConfusionBatch make_batch(std::span<const EvalContext> contexts,
                                        stats::Arena& arena);

/// Whole-catalogue evaluation of a ConfusionBatch. The constructor keeps
/// its arena parameter so existing callers compile unchanged; nothing is
/// allocated from it.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(stats::Arena& /*arena*/) noexcept {}

  /// Full catalogue plane, row-major: out[i * kMetricCount + m] is metric
  /// m (catalogue order) of context i, written by compute_all_metrics.
  /// Throws std::invalid_argument when out.size() != batch.size *
  /// kMetricCount.
  void evaluate_all(const ConfusionBatch& batch, std::span<double> out) const;
};

}  // namespace vdbench::core
