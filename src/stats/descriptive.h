// Descriptive statistics over samples of doubles.
//
// All functions ignore nothing and throw std::invalid_argument on empty
// input (or on inputs that make the statistic meaningless), so callers can
// rely on a returned value always being well-defined and finite for finite
// input.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vdbench::stats {

/// Arithmetic mean. Throws on empty input.
double mean(std::span<const double> xs);

/// Unbiased sample variance (divides by n-1). Throws if n < 2.
double variance(std::span<const double> xs);

/// Sample standard deviation. Throws if n < 2.
double stddev(std::span<const double> xs);

/// Minimum. Throws on empty input.
double min(std::span<const double> xs);

/// Maximum. Throws on empty input.
double max(std::span<const double> xs);

/// Median (average of middle two for even n). Throws on empty input.
double median(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]. Throws on empty input or
/// out-of-range q. quantile(xs, 0) == min, quantile(xs, 1) == max.
double quantile(std::span<const double> xs, double q);

}  // namespace vdbench::stats
