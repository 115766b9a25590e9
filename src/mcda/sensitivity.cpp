#include "mcda/sensitivity.h"

#include <stdexcept>

#include "mcda/aggregate.h"
#include "mcda/weighted_sum.h"

namespace vdbench::mcda {

SensitivityResult weight_sensitivity(const stats::Matrix& scores,
                                     std::span<const double> weights,
                                     double perturbation, std::size_t trials,
                                     stats::Rng& rng) {
  if (perturbation <= 0.0)
    throw std::invalid_argument("weight_sensitivity: perturbation > 0");
  if (trials == 0)
    throw std::invalid_argument("weight_sensitivity: trials > 0");
  const std::vector<double> baseline_scores =
      weighted_sum_scores(scores, weights);
  const std::vector<std::size_t> baseline_ranking =
      ranking_from_scores(baseline_scores);
  const std::size_t baseline_top = baseline_ranking.front();

  SensitivityResult result;
  result.trials = trials;
  result.win_share.assign(scores.rows(), 0.0);
  double distance_acc = 0.0;
  std::size_t stable = 0;
  std::vector<double> perturbed(weights.begin(), weights.end());
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t c = 0; c < perturbed.size(); ++c)
      perturbed[c] = weights[c] * rng.lognormal(0.0, perturbation);
    const std::vector<double> s = weighted_sum_scores(scores, perturbed);
    const std::vector<std::size_t> ranking = ranking_from_scores(s);
    if (ranking.front() == baseline_top) ++stable;
    result.win_share[ranking.front()] += 1.0;
    distance_acc += kendall_distance(baseline_ranking, ranking);
  }
  result.top_choice_stability =
      static_cast<double>(stable) / static_cast<double>(trials);
  result.mean_kendall_distance = distance_acc / static_cast<double>(trials);
  for (double& w : result.win_share) w /= static_cast<double>(trials);
  return result;
}

}  // namespace vdbench::mcda
