// Lightweight hypothesis-testing helpers used by the experiment harness to
// decide whether one tool's metric values are credibly better than
// another's across repeated benchmark runs.
#pragma once

#include <span>

namespace vdbench::stats {

/// Result of a two-sided location test.
struct TestResult {
  double statistic = 0.0;
  double p_value = 1.0;
  /// True when p_value < alpha used by `significant_at`.
  [[nodiscard]] bool significant_at(double alpha) const noexcept {
    return p_value < alpha;
  }
};

/// Welch's two-sample t-test (unequal variances). Two-sided p-value via a
/// normal approximation of the t distribution for df >= 30 and a
/// Hill-style approximation below. Throws if either sample has n < 2.
TestResult welch_t_test(std::span<const double> xs,
                        std::span<const double> ys);

/// Probability that a draw from xs exceeds a draw from ys
/// (common-language effect size / A-statistic, ties count half).
double probability_of_superiority(std::span<const double> xs,
                                  std::span<const double> ys);

/// Standard normal CDF.
double normal_cdf(double z);

/// Standard normal quantile (inverse CDF) via Acklam's approximation,
/// accurate to ~1e-9. Throws std::invalid_argument unless p is in (0, 1).
double normal_quantile(double p);

/// A proportion estimate with a two-sided interval.
struct ProportionInterval {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};

/// Wilson score interval for a binomial proportion — well-behaved near 0
/// and 1 where the Wald interval collapses. `successes` may be fractional
/// (e.g. tie-as-half accounting). Throws unless 0 <= successes <= trials,
/// trials > 0 and confidence in (0, 1).
ProportionInterval wilson_interval(double successes, double trials,
                                   double confidence = 0.95);

}  // namespace vdbench::stats
