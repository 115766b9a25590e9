#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace vdbench::stats {

namespace {

void require_nonempty(std::span<const double> xs, const char* who) {
  if (xs.empty())
    throw std::invalid_argument(std::string(who) + ": empty sample");
}

}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  double acc = 0.0;
  for (const double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2)
    throw std::invalid_argument("variance: need at least two samples");
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  require_nonempty(xs, "min");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  require_nonempty(xs, "max");
  return *std::max_element(xs.begin(), xs.end());
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  require_nonempty(xs, "quantile");
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("quantile: q must be in [0, 1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace vdbench::stats
