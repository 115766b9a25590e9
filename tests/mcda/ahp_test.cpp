#include "mcda/ahp.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vdbench::mcda {
namespace {

TEST(ComparisonMatrixTest, DefaultIsAllOnes) {
  const ComparisonMatrix cm(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(cm(i, j), 1.0);
}

TEST(ComparisonMatrixTest, SetJudgmentMaintainsReciprocity) {
  ComparisonMatrix cm(3);
  cm.set_judgment(0, 1, 4.0);
  EXPECT_DOUBLE_EQ(cm(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(cm(1, 0), 0.25);
}

TEST(ComparisonMatrixTest, SetJudgmentRejectsBadInput) {
  ComparisonMatrix cm(3);
  EXPECT_THROW(cm.set_judgment(1, 1, 2.0), std::invalid_argument);
  EXPECT_THROW(cm.set_judgment(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(cm.set_judgment(0, 1, -3.0), std::invalid_argument);
}

TEST(SaatyScaleTest, SnapsToNearestScaleValue) {
  EXPECT_DOUBLE_EQ(snap_to_saaty_scale(1.0), 1.0);
  EXPECT_DOUBLE_EQ(snap_to_saaty_scale(3.2), 3.0);
  EXPECT_DOUBLE_EQ(snap_to_saaty_scale(12.0), 9.0);
  EXPECT_DOUBLE_EQ(snap_to_saaty_scale(0.26), 0.25);
  EXPECT_DOUBLE_EQ(snap_to_saaty_scale(0.05), 1.0 / 9.0);
}

TEST(SaatyScaleTest, RejectsNonPositive) {
  EXPECT_THROW((void)snap_to_saaty_scale(0.0), std::invalid_argument);
  EXPECT_THROW((void)snap_to_saaty_scale(-1.0), std::invalid_argument);
}

TEST(SaatyScaleTest, ReciprocalSymmetry) {
  for (const double r : {1.7, 2.5, 6.3, 0.9}) {
    EXPECT_NEAR(snap_to_saaty_scale(r) * snap_to_saaty_scale(1.0 / r), 1.0,
                1e-12);
  }
}

TEST(AhpTest, SaatyTextbookExample) {
  // Classic 3x3 example: A twice B, A four times C, B twice C —
  // perfectly consistent, weights (4/7, 2/7, 1/7).
  ComparisonMatrix cm(3);
  cm.set_judgment(0, 1, 2.0);
  cm.set_judgment(0, 2, 4.0);
  cm.set_judgment(1, 2, 2.0);
  const AhpResult r = ahp_priorities(cm);
  EXPECT_NEAR(r.lambda_max, 3.0, 1e-6);
  EXPECT_NEAR(r.weights[0], 4.0 / 7.0, 1e-6);
  EXPECT_NEAR(r.weights[1], 2.0 / 7.0, 1e-6);
  EXPECT_NEAR(r.weights[2], 1.0 / 7.0, 1e-6);
  EXPECT_NEAR(r.consistency_ratio, 0.0, 1e-9);
  EXPECT_TRUE(r.acceptable());
}

TEST(AhpTest, InconsistentJudgmentsFlagged) {
  // A > B, B > C, but C > A strongly: a preference cycle.
  ComparisonMatrix cm(3);
  cm.set_judgment(0, 1, 5.0);
  cm.set_judgment(1, 2, 5.0);
  cm.set_judgment(0, 2, 1.0 / 5.0);
  const AhpResult r = ahp_priorities(cm);
  EXPECT_GT(r.lambda_max, 3.0);
  EXPECT_GT(r.consistency_ratio, 0.10);
  EXPECT_FALSE(r.acceptable());
}

TEST(AhpTest, MildInconsistencyAcceptable) {
  ComparisonMatrix cm(3);
  cm.set_judgment(0, 1, 2.0);
  cm.set_judgment(0, 2, 5.0);  // consistent value would be 4
  cm.set_judgment(1, 2, 2.0);
  const AhpResult r = ahp_priorities(cm);
  EXPECT_GT(r.consistency_ratio, 0.0);
  EXPECT_TRUE(r.acceptable());
}

TEST(AhpTest, TwoByTwoAlwaysConsistent) {
  ComparisonMatrix cm(2);
  cm.set_judgment(0, 1, 7.0);
  const AhpResult r = ahp_priorities(cm);
  EXPECT_DOUBLE_EQ(r.consistency_ratio, 0.0);
  EXPECT_NEAR(r.weights[0], 7.0 / 8.0, 1e-9);
}

TEST(AhpTest, WeightsSumToOne) {
  ComparisonMatrix cm(4);
  cm.set_judgment(0, 1, 3.0);
  cm.set_judgment(0, 2, 5.0);
  cm.set_judgment(0, 3, 7.0);
  cm.set_judgment(1, 2, 2.0);
  cm.set_judgment(1, 3, 4.0);
  cm.set_judgment(2, 3, 2.0);
  const AhpResult r = ahp_priorities(cm);
  double sum = 0.0;
  for (const double w : r.weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomIndexTest, SaatyTableValues) {
  EXPECT_DOUBLE_EQ(saaty_random_index(1), 0.0);
  EXPECT_DOUBLE_EQ(saaty_random_index(2), 0.0);
  EXPECT_DOUBLE_EQ(saaty_random_index(3), 0.58);
  EXPECT_DOUBLE_EQ(saaty_random_index(4), 0.90);
  EXPECT_DOUBLE_EQ(saaty_random_index(10), 1.49);
  EXPECT_DOUBLE_EQ(saaty_random_index(50), saaty_random_index(15));
}

TEST(AhpRatingsTest, WeightedSumOfScores) {
  const stats::Matrix scores = {{1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}};
  const std::vector<double> weights = {0.75, 0.25};
  const std::vector<double> out = ahp_rate_alternatives(scores, weights);
  EXPECT_DOUBLE_EQ(out[0], 0.75);
  EXPECT_DOUBLE_EQ(out[1], 0.25);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(AhpRatingsTest, NormalizesWeights) {
  const stats::Matrix scores = {{1.0, 0.0}};
  const std::vector<double> weights = {3.0, 1.0};
  EXPECT_DOUBLE_EQ(ahp_rate_alternatives(scores, weights)[0], 0.75);
}

TEST(AhpRatingsTest, DimensionMismatchThrows) {
  const stats::Matrix scores(2, 3);
  const std::vector<double> weights = {1.0, 1.0};
  EXPECT_THROW(ahp_rate_alternatives(scores, weights), std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::mcda
