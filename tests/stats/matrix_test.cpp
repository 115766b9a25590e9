#include "stats/matrix.h"

#include <gtest/gtest.h>

#include <vector>

namespace vdbench::stats {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
}

TEST(MatrixTest, RejectsZeroDimensions) {
  EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
  EXPECT_THROW(Matrix(3, 0), std::invalid_argument);
}

TEST(MatrixTest, InitializerList) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RejectsRaggedInitializer) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(MatrixTest, MatrixVectorProduct) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> v = {1.0, 1.0};
  const std::vector<double> out = a.multiply(v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(EigenTest, DiagonalMatrixPrincipalPair) {
  const Matrix m = {{3.0, 0.0}, {0.0, 1.0}};
  const EigenResult r = principal_eigenpair(m);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, 3.0, 1e-6);
  EXPECT_NEAR(r.eigenvector[0], 1.0, 1e-6);
  EXPECT_NEAR(r.eigenvector[1], 0.0, 1e-6);
}

TEST(EigenTest, ConsistentReciprocalMatrix) {
  // Perfectly consistent pairwise matrix from weights {0.6, 0.3, 0.1}:
  // principal eigenvalue equals n and eigenvector recovers the weights.
  const Matrix m = {{1.0, 2.0, 6.0},
                    {0.5, 1.0, 3.0},
                    {1.0 / 6.0, 1.0 / 3.0, 1.0}};
  const EigenResult r = principal_eigenpair(m);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, 3.0, 1e-6);
  EXPECT_NEAR(r.eigenvector[0], 0.6, 1e-6);
  EXPECT_NEAR(r.eigenvector[1], 0.3, 1e-6);
  EXPECT_NEAR(r.eigenvector[2], 0.1, 1e-6);
}

TEST(EigenTest, EigenvectorSumsToOne) {
  const Matrix m = {{1.0, 4.0}, {0.25, 1.0}};
  const EigenResult r = principal_eigenpair(m);
  EXPECT_NEAR(r.eigenvector[0] + r.eigenvector[1], 1.0, 1e-9);
}

TEST(EigenTest, RejectsNonSquare) {
  const Matrix m(2, 3);
  EXPECT_THROW(principal_eigenpair(m), std::invalid_argument);
}

TEST(NormalizeTest, SumsToOne) {
  const std::vector<double> v = {2.0, 3.0, 5.0};
  const std::vector<double> n = normalize_to_sum_one(v);
  EXPECT_DOUBLE_EQ(n[0], 0.2);
  EXPECT_DOUBLE_EQ(n[1], 0.3);
  EXPECT_DOUBLE_EQ(n[2], 0.5);
}

TEST(NormalizeTest, RejectsDegenerate) {
  const std::vector<double> zeros = {0.0, 0.0};
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(normalize_to_sum_one(zeros), std::invalid_argument);
  EXPECT_THROW(normalize_to_sum_one(negative), std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::stats
