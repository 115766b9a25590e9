// Small dense matrix with the linear algebra the MCDA layer needs:
// matrix-vector products and the principal eigenpair via power iteration
// (used by AHP priority-vector extraction).
//
// Sizes in this library are tiny (criteria/alternative counts, typically
// < 40), so a straightforward row-major std::vector<double> layout is the
// right tool; no BLAS dependency.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace vdbench::stats {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  /// rows x cols matrix filled with `fill` (default 0).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  /// Element access with bounds checks in debug; no checks in release path.
  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Checked element access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);

  /// Matrix-vector product; throws on dimension mismatch.
  [[nodiscard]] std::vector<double> multiply(
      std::span<const double> vec) const;

  /// Raw storage (row-major).
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Result of a principal-eigenpair computation.
struct EigenResult {
  double eigenvalue = 0.0;
  std::vector<double> eigenvector;  ///< normalised to sum to 1
  std::size_t iterations = 0;
  bool converged = false;
};

/// Principal eigenpair of a square matrix with positive entries, via power
/// iteration. The eigenvector is normalised to sum to one (a priority
/// vector). Throws std::invalid_argument for non-square or empty input.
EigenResult principal_eigenpair(const Matrix& m, std::size_t max_iterations = 1000,
                                double tolerance = 1e-12);

/// Normalise a non-negative vector to sum to one. Throws if the sum is 0.
std::vector<double> normalize_to_sum_one(std::span<const double> xs);

}  // namespace vdbench::stats
