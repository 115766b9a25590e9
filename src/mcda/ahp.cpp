#include "mcda/ahp.h"

#include <array>
#include <cmath>
#include <stdexcept>

namespace vdbench::mcda {

ComparisonMatrix::ComparisonMatrix(std::size_t n)
    : m_(stats::Matrix::identity(n)) {
  if (n == 0) throw std::invalid_argument("ComparisonMatrix: size must be > 0");
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m_(i, j) = 1.0;
}

void ComparisonMatrix::set_judgment(std::size_t i, std::size_t j,
                                    double value) {
  if (i == j)
    throw std::invalid_argument("set_judgment: diagonal entries are fixed");
  if (value <= 0.0)
    throw std::invalid_argument("set_judgment: value must be > 0");
  m_.at(i, j) = value;
  m_.at(j, i) = 1.0 / value;
}

double snap_to_saaty_scale(double ratio) {
  if (ratio <= 0.0)
    throw std::invalid_argument("snap_to_saaty_scale: ratio must be > 0");
  double best = 1.0;
  double best_err = std::abs(std::log(ratio));
  for (int k = 2; k <= 9; ++k) {
    for (const double candidate : {static_cast<double>(k), 1.0 / k}) {
      const double err = std::abs(std::log(ratio) - std::log(candidate));
      if (err < best_err) {
        best_err = err;
        best = candidate;
      }
    }
  }
  return best;
}

double saaty_random_index(std::size_t n) {
  // Saaty's published RI values; index by matrix size.
  static constexpr std::array<double, 16> kRi = {
      0.0, 0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32,
      1.41, 1.45, 1.49, 1.51, 1.48, 1.56, 1.57, 1.59};
  if (n < kRi.size()) return kRi[n];
  return kRi.back();
}

AhpResult ahp_priorities(const ComparisonMatrix& judgments) {
  const stats::EigenResult eigen =
      stats::principal_eigenpair(judgments.matrix());
  AhpResult result;
  result.weights = eigen.eigenvector;
  result.lambda_max = eigen.eigenvalue;
  const auto n = static_cast<double>(judgments.size());
  if (judgments.size() <= 2) {
    result.consistency_index = 0.0;
    result.consistency_ratio = 0.0;
    return result;
  }
  result.consistency_index = (result.lambda_max - n) / (n - 1.0);
  const double ri = saaty_random_index(judgments.size());
  result.consistency_ratio =
      ri == 0.0 ? 0.0 : result.consistency_index / ri;
  // Numerical guard: a perfectly consistent matrix can give a tiny
  // negative CI through eigenvalue round-off.
  if (result.consistency_index < 0.0 && result.consistency_index > -1e-9) {
    result.consistency_index = 0.0;
    result.consistency_ratio = 0.0;
  }
  return result;
}

std::vector<double> ahp_rate_alternatives(
    const stats::Matrix& scores, std::span<const double> criteria_weights) {
  if (scores.cols() != criteria_weights.size())
    throw std::invalid_argument(
        "ahp_rate_alternatives: one weight per criterion required");
  const std::vector<double> w = stats::normalize_to_sum_one(criteria_weights);
  std::vector<double> priorities(scores.rows(), 0.0);
  for (std::size_t a = 0; a < scores.rows(); ++a) {
    double acc = 0.0;
    for (std::size_t c = 0; c < scores.cols(); ++c)
      acc += w[c] * scores(a, c);
    priorities[a] = acc;
  }
  return priorities;
}

}  // namespace vdbench::mcda
