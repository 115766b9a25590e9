// Weight-sensitivity analysis for MCDA rankings: how stable is the top
// choice (and the full ordering) when the criteria weights are perturbed?
// Standard MCDA practice before trusting a recommendation, and used by E13
// to show the recommendation is not a knife-edge artifact of one weight
// vector.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/matrix.h"
#include "stats/rng.h"

namespace vdbench::mcda {

/// Outcome of a weight-perturbation experiment.
struct SensitivityResult {
  /// Fraction of perturbed weight vectors preserving the baseline winner.
  double top_choice_stability = 0.0;
  /// Mean Kendall distance (in [0,1]) between the baseline ranking and
  /// each perturbed ranking.
  double mean_kendall_distance = 0.0;
  /// How often each alternative won across perturbations (sums to 1).
  std::vector<double> win_share;
  /// Number of perturbations evaluated.
  std::size_t trials = 0;
};

/// Perturb weights multiplicatively (lognormal, sd = `perturbation`),
/// re-rank alternatives by weighted sum each time, and summarise ranking
/// stability. `scores(a, c)` oriented higher-is-better. Throws on
/// dimension mismatch, empty input or non-positive perturbation.
[[nodiscard]] SensitivityResult weight_sensitivity(
    const stats::Matrix& scores, std::span<const double> weights,
    double perturbation, std::size_t trials, stats::Rng& rng);

}  // namespace vdbench::mcda
