// Weighted-sum model (WSM) — the simplest MCDA baseline, used in the E9
// method ablation and by the weight-sensitivity analysis.
#pragma once

#include <span>
#include <vector>

#include "stats/matrix.h"

namespace vdbench::mcda {

/// Weighted-sum scores: sum_c w_c * scores(a, c). Scores should already be
/// normalised to comparable units (higher = better). Weights are
/// normalised internally. Throws on dimension mismatch.
[[nodiscard]] std::vector<double> weighted_sum_scores(
    const stats::Matrix& scores, std::span<const double> weights);

}  // namespace vdbench::mcda
