#include "stats/matrix.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace vdbench::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("Matrix: dimensions must be positive");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  if (rows_ == 0 || cols_ == 0)
    throw std::invalid_argument("Matrix: dimensions must be positive");
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  assert(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_)
    throw std::out_of_range("Matrix::at: index out of range");
  return data_[r * cols_ + c];
}

std::vector<double> Matrix::multiply(std::span<const double> vec) const {
  if (cols_ != vec.size())
    throw std::invalid_argument("Matrix::multiply(vec): dimension mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * vec[j];
    out[i] = acc;
  }
  return out;
}

EigenResult principal_eigenpair(const Matrix& m, std::size_t max_iterations,
                                double tolerance) {
  if (!m.square())
    throw std::invalid_argument("principal_eigenpair: matrix must be square");
  const std::size_t n = m.rows();
  EigenResult result;
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  double lambda = 0.0;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    std::vector<double> w = m.multiply(v);
    double sum = 0.0;
    for (const double x : w) sum += x;
    if (sum == 0.0)
      throw std::invalid_argument(
          "principal_eigenpair: iteration collapsed to zero vector");
    // v sums to one, so sum(Mv) is the Rayleigh-style eigenvalue estimate
    // and exactly lambda_max at the fixed point.
    const double lambda_new = sum;
    for (double& x : w) x /= sum;
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) delta += std::abs(w[i] - v[i]);
    v = std::move(w);
    result.iterations = it + 1;
    if (delta < tolerance && std::abs(lambda_new - lambda) < tolerance) {
      lambda = lambda_new;
      result.converged = true;
      break;
    }
    lambda = lambda_new;
  }
  result.eigenvalue = lambda;
  result.eigenvector = std::move(v);
  return result;
}

std::vector<double> normalize_to_sum_one(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) {
    if (x < 0.0)
      throw std::invalid_argument("normalize_to_sum_one: negative element");
    sum += x;
  }
  if (sum <= 0.0)
    throw std::invalid_argument("normalize_to_sum_one: zero vector");
  std::vector<double> out(xs.begin(), xs.end());
  for (double& x : out) x /= sum;
  return out;
}

}  // namespace vdbench::stats
