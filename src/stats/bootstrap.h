// Non-parametric bootstrap confidence intervals.
//
// The benchmark harness reports a metric value together with a percentile
// bootstrap interval so that tool rankings can be read with their sampling
// uncertainty — one of the "stability" characteristics the DSN'15 metric
// study cares about.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace vdbench::stats {

/// A two-sided confidence interval with its point estimate.
struct ConfidenceInterval {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double confidence = 0.0;  ///< e.g. 0.95

  /// Width of the interval (upper - lower).
  [[nodiscard]] double width() const noexcept { return upper - lower; }
  /// True if the value lies inside the closed interval.
  [[nodiscard]] bool contains(double v) const noexcept {
    return v >= lower && v <= upper;
  }
};

/// A statistic maps a sample to a scalar (e.g. mean, median, a metric).
using Statistic = std::function<double(std::span<const double>)>;

/// Percentile bootstrap CI for an arbitrary statistic.
///
/// Draws `replicates` resamples with replacement, evaluates the statistic
/// on each and returns the (alpha/2, 1-alpha/2) percentiles around the
/// point estimate computed on the original sample.
///
/// Throws std::invalid_argument on empty sample, replicates == 0 or
/// confidence outside (0, 1).
ConfidenceInterval bootstrap_ci(std::span<const double> sample,
                                const Statistic& statistic, Rng& rng,
                                std::size_t replicates = 1000,
                                double confidence = 0.95);

/// Convenience: bootstrap CI of the mean.
ConfidenceInterval bootstrap_mean_ci(std::span<const double> sample, Rng& rng,
                                     std::size_t replicates = 1000,
                                     double confidence = 0.95);

}  // namespace vdbench::stats
