// Analytic Hierarchy Process (Saaty) — the MCDA algorithm used in stage 3
// of the DSN'15 study to validate the analytical metric selection against
// experts' judgment.
//
// Criteria weights are extracted from a positive reciprocal pairwise
// comparison matrix as its principal eigenvector; judgment quality is
// measured by Saaty's consistency ratio (CR), with the conventional
// CR < 0.10 acceptability threshold. Alternatives are scored in "ratings
// mode": each alternative has a measured score per criterion (here: the
// metric property/effectiveness scores), and the final priority is the
// weighted sum under the eigenvector weights.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/matrix.h"

namespace vdbench::mcda {

/// A pairwise comparison matrix on the Saaty 1..9 scale.
/// Invariant: square, positive, reciprocal (a_ji == 1/a_ij, a_ii == 1).
class ComparisonMatrix {
 public:
  /// Identity judgments (everything equally important) of the given size.
  explicit ComparisonMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return m_.rows(); }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return m_(i, j);
  }
  [[nodiscard]] const stats::Matrix& matrix() const noexcept { return m_; }

  /// Set a judgment; the reciprocal entry is updated automatically.
  /// `value` must be positive; i != j. Throws otherwise.
  void set_judgment(std::size_t i, std::size_t j, double value);

 private:
  stats::Matrix m_;
};

/// Snap a positive ratio to the nearest Saaty-scale value
/// {1/9, 1/8, ..., 1/2, 1, 2, ..., 9}.
[[nodiscard]] double snap_to_saaty_scale(double ratio);

/// Outcome of an AHP weight extraction.
struct AhpResult {
  std::vector<double> weights;    ///< priority vector, sums to 1
  double lambda_max = 0.0;        ///< principal eigenvalue
  double consistency_index = 0.0; ///< (lambda_max - n) / (n - 1)
  double consistency_ratio = 0.0; ///< CI / RI(n); 0 for n <= 2
  /// Saaty's conventional acceptability check (CR < 0.10).
  [[nodiscard]] bool acceptable() const noexcept {
    return consistency_ratio < 0.10;
  }
};

/// Extract priority weights and consistency diagnostics from a pairwise
/// comparison matrix (principal eigenvector method).
[[nodiscard]] AhpResult ahp_priorities(const ComparisonMatrix& judgments);

/// Saaty's random consistency index for matrices of size n (0 for n <= 2,
/// table values up to n = 15, the n = 15 value beyond).
[[nodiscard]] double saaty_random_index(std::size_t n);

/// Ratings-mode AHP over alternatives:
/// `scores(a, c)` = measured score of alternative a on criterion c, all in
/// comparable [0,1] units; `criteria_weights` from ahp_priorities. Returns
/// one priority per alternative (weighted sum, weights normalised).
/// Throws on dimension mismatch.
[[nodiscard]] std::vector<double> ahp_rate_alternatives(
    const stats::Matrix& scores, std::span<const double> criteria_weights);

}  // namespace vdbench::mcda
