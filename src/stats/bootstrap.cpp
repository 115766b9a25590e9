#include "stats/bootstrap.h"

#include <algorithm>
#include <stdexcept>

#include "stats/descriptive.h"

namespace vdbench::stats {

namespace {

void validate_bootstrap_inputs(std::span<const double> sample,
                               std::size_t replicates) {
  if (sample.empty())
    throw std::invalid_argument("bootstrap: empty sample");
  if (replicates == 0)
    throw std::invalid_argument("bootstrap: replicates must be > 0");
}

std::vector<double> replicate_statistics(std::span<const double> sample,
                                         const Statistic& statistic, Rng& rng,
                                         std::size_t replicates) {
  validate_bootstrap_inputs(sample, replicates);
  std::vector<double> stats;
  stats.reserve(replicates);
  std::vector<double> resample(sample.size());
  for (std::size_t r = 0; r < replicates; ++r) {
    for (double& x : resample) x = sample[rng.pick_index(sample.size())];
    stats.push_back(statistic(resample));
  }
  return stats;
}

}  // namespace

ConfidenceInterval bootstrap_ci(std::span<const double> sample,
                                const Statistic& statistic, Rng& rng,
                                std::size_t replicates, double confidence) {
  if (confidence <= 0.0 || confidence >= 1.0)
    throw std::invalid_argument("bootstrap_ci: confidence must be in (0,1)");
  const std::vector<double> stats =
      replicate_statistics(sample, statistic, rng, replicates);
  const double alpha = 1.0 - confidence;
  ConfidenceInterval ci;
  ci.estimate = statistic(sample);
  ci.lower = quantile(stats, alpha / 2.0);
  ci.upper = quantile(stats, 1.0 - alpha / 2.0);
  ci.confidence = confidence;
  return ci;
}

ConfidenceInterval bootstrap_mean_ci(std::span<const double> sample, Rng& rng,
                                     std::size_t replicates,
                                     double confidence) {
  return bootstrap_ci(
      sample, [](std::span<const double> xs) { return mean(xs); }, rng,
      replicates, confidence);
}

}  // namespace vdbench::stats
