#include "mcda/weighted_sum.h"

#include <stdexcept>

namespace vdbench::mcda {

std::vector<double> weighted_sum_scores(const stats::Matrix& scores,
                                        std::span<const double> weights) {
  if (scores.cols() != weights.size())
    throw std::invalid_argument(
        "weighted_sum_scores: one weight per criterion required");
  const std::vector<double> w = stats::normalize_to_sum_one(weights);
  std::vector<double> out(scores.rows(), 0.0);
  for (std::size_t a = 0; a < scores.rows(); ++a) {
    double acc = 0.0;
    for (std::size_t c = 0; c < scores.cols(); ++c)
      acc += w[c] * scores(a, c);
    out[a] = acc;
  }
  return out;
}

}  // namespace vdbench::mcda
