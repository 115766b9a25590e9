#include "mcda/weighted_sum.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vdbench::mcda {
namespace {

TEST(WeightedSumTest, HandComputed) {
  const stats::Matrix scores = {{1.0, 0.0}, {0.0, 1.0}, {0.6, 0.6}};
  const std::vector<double> w = {0.7, 0.3};
  const std::vector<double> out = weighted_sum_scores(scores, w);
  EXPECT_DOUBLE_EQ(out[0], 0.7);
  EXPECT_DOUBLE_EQ(out[1], 0.3);
  EXPECT_NEAR(out[2], 0.6, 1e-12);
}

TEST(WeightedSumTest, NormalizesWeights) {
  const stats::Matrix scores = {{1.0, 0.0}};
  const std::vector<double> w = {2.0, 6.0};
  EXPECT_DOUBLE_EQ(weighted_sum_scores(scores, w)[0], 0.25);
}

TEST(WeightedSumTest, DimensionMismatchThrows) {
  const stats::Matrix scores(2, 3);
  const std::vector<double> w = {1.0, 1.0};
  EXPECT_THROW(weighted_sum_scores(scores, w), std::invalid_argument);
}

TEST(WeightedModelsTest, AgreeOnDominance) {
  const stats::Matrix scores = {{0.9, 0.8}, {0.4, 0.3}};
  const std::vector<double> w = {0.5, 0.5};
  const auto wsm = weighted_sum_scores(scores, w);
  EXPECT_GT(wsm[0], wsm[1]);
}

}  // namespace
}  // namespace vdbench::mcda
