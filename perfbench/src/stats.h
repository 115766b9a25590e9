// Order statistics over one run's op times.
//
// A tail percentile is reported only when at least ten samples lie beyond
// it; with fewer, the percentile is "unsupported" and callers say so
// instead of printing a number that one outlier decides.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Median; the mean of the two middle values for an even count. NaN when
/// `samples` is empty.
[[nodiscard]] double median(std::vector<double> samples);

/// How many of n samples lie beyond the nearest-rank q-percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The nearest-rank q-percentile (the ceil(q * n)-th smallest) when at
/// least `min_beyond` samples lie beyond it, otherwise nullopt
/// ("unsupported").
[[nodiscard]] std::optional<double> supported_percentile(
    const std::vector<double>& samples, double q,
    std::size_t min_beyond = kMinSamplesBeyond);

}  // namespace perfbench
