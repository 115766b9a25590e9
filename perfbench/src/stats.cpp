#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

namespace {

std::size_t rank_of(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

std::optional<double> supported_percentile(const std::vector<double>& samples,
                                            double q, std::size_t min_beyond) {
  if (samples.empty() || samples_beyond(samples.size(), q) < min_beyond)
    return std::nullopt;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return sorted[rank_of(sorted.size(), q) - 1];
}

}  // namespace perfbench
