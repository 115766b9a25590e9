#include "core/properties.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vdbench::core {
namespace {

// A lighter configuration than the default keeps the suite fast while
// preserving the qualitative ordering the assertions check.
AssessmentConfig fast_config() {
  AssessmentConfig cfg;
  cfg.trials = 120;
  cfg.benchmark_items = 400;
  cfg.asymptotic_items = 200'000;
  return cfg;
}

class PropertyAssessorTest : public ::testing::Test {
 protected:
  PropertyAssessor assessor_{fast_config()};
};

TEST(PropertyEnumTest, CanonicalOrderAndNames) {
  const auto props = all_properties();
  ASSERT_EQ(props.size(), kPropertyCount);
  EXPECT_EQ(props.front(), Property::kDiscrimination);
  EXPECT_EQ(props.back(), Property::kCollectionEase);
  for (const Property p : props) {
    EXPECT_FALSE(property_name(p).empty());
    EXPECT_FALSE(property_description(p).empty());
  }
}

TEST(AssessmentConfigTest, ValidationCatchesBadFields) {
  AssessmentConfig cfg;
  cfg.base_prevalence = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = AssessmentConfig{};
  cfg.trials = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = AssessmentConfig{};
  cfg.prevalence_grid = {1.5};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = AssessmentConfig{};
  cfg.quality_gaps.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(AssessmentConfig{}.validate());
}

TEST(MetricAssessmentTest, WeightedScoreIsConvexCombination) {
  MetricAssessment a;
  a.metric = MetricId::kRecall;
  a.scores = {1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0};
  std::array<double, kPropertyCount> uniform{};
  uniform.fill(1.0);
  EXPECT_NEAR(a.weighted_score(uniform), 5.0 / 9.0, 1e-12);
  std::array<double, kPropertyCount> first_only{};
  first_only[0] = 2.0;
  EXPECT_DOUBLE_EQ(a.weighted_score(first_only), 1.0);
}

TEST(MetricAssessmentTest, WeightedScoreRejectsBadWeights) {
  MetricAssessment a;
  const std::vector<double> wrong_size(3, 1.0);
  EXPECT_THROW((void)a.weighted_score(wrong_size), std::invalid_argument);
  std::array<double, kPropertyCount> zeros{};
  EXPECT_THROW((void)a.weighted_score(zeros), std::invalid_argument);
  std::array<double, kPropertyCount> negative{};
  negative.fill(1.0);
  negative[2] = -1.0;
  EXPECT_THROW((void)a.weighted_score(negative), std::invalid_argument);
}

TEST_F(PropertyAssessorTest, ScoresAreInUnitInterval) {
  stats::Rng rng(100);
  for (const MetricId id :
       {MetricId::kPrecision, MetricId::kMcc, MetricId::kLrPlus,
        MetricId::kAnalysisThroughput}) {
    const MetricAssessment a = assessor_.assess(id, rng);
    for (const double s : a.scores) {
      EXPECT_GE(s, 0.0) << metric_info(id).key;
      EXPECT_LE(s, 1.0) << metric_info(id).key;
    }
  }
}

TEST_F(PropertyAssessorTest, DeterministicGivenSeed) {
  stats::Rng a(7), b(7);
  const MetricAssessment ma = assessor_.assess(MetricId::kFMeasure, a);
  const MetricAssessment mb = assessor_.assess(MetricId::kFMeasure, b);
  EXPECT_EQ(ma.scores, mb.scores);
}

TEST_F(PropertyAssessorTest, RecallIsPrevalenceRobustAccuracyIsNot) {
  stats::Rng rng(1);
  const double recall_rob =
      assessor_.assess(MetricId::kRecall, rng)
          .score(Property::kPrevalenceRobustness);
  const double precision_rob =
      assessor_.assess(MetricId::kPrecision, rng)
          .score(Property::kPrevalenceRobustness);
  EXPECT_GT(recall_rob, 0.95);
  EXPECT_LT(precision_rob, 0.7);
}

TEST_F(PropertyAssessorTest, InformednessMoreRobustThanMcc) {
  stats::Rng rng(2);
  const double j = assessor_.assess(MetricId::kInformedness, rng)
                       .score(Property::kPrevalenceRobustness);
  const double mcc = assessor_.assess(MetricId::kMcc, rng)
                         .score(Property::kPrevalenceRobustness);
  EXPECT_GT(j, mcc);
}

TEST_F(PropertyAssessorTest, MonotonicityHoldsForWellBehavedMetrics) {
  stats::Rng rng(3);
  for (const MetricId id : {MetricId::kRecall, MetricId::kMcc,
                            MetricId::kInformedness, MetricId::kFMeasure}) {
    EXPECT_DOUBLE_EQ(assessor_.assess(id, rng).score(Property::kMonotonicity),
                     1.0)
        << metric_info(id).key;
  }
}

TEST_F(PropertyAssessorTest, DiscriminationAboveChanceForQualityMetrics) {
  stats::Rng rng(4);
  for (const MetricId id : {MetricId::kMcc, MetricId::kFMeasure,
                            MetricId::kBalancedAccuracy}) {
    EXPECT_GT(assessor_.assess(id, rng).score(Property::kDiscrimination),
              0.6)
        << metric_info(id).key;
  }
}

TEST_F(PropertyAssessorTest, ThroughputCannotDiscriminateQuality) {
  // The abstract context gives every tool the same analysis time, so
  // throughput must sit at chance level.
  stats::Rng rng(5);
  const double d = assessor_.assess(MetricId::kAnalysisThroughput, rng)
                       .score(Property::kDiscrimination);
  EXPECT_NEAR(d, 0.5, 0.02);
}

TEST_F(PropertyAssessorTest, DescriptiveMetricsScoreZeroOnQualityAxes) {
  stats::Rng rng(6);
  const MetricAssessment a = assessor_.assess(MetricId::kPrevalence, rng);
  EXPECT_DOUBLE_EQ(a.score(Property::kDiscrimination), 0.0);
  EXPECT_DOUBLE_EQ(a.score(Property::kMonotonicity), 0.0);
  EXPECT_DOUBLE_EQ(a.score(Property::kCostAwareness), 0.0);
}

TEST_F(PropertyAssessorTest, DefinednessPenalizesPrecisionStyleMetrics) {
  // On tiny benchmarks a silent tool leaves precision undefined while
  // recall stays defined (positives are guaranteed by prevalence > 0 in
  // most draws, but not all; recall should still beat precision).
  stats::Rng rng(7);
  const double recall_def =
      assessor_.assess(MetricId::kRecall, rng).score(Property::kDefinedness);
  const double dor_def = assessor_.assess(MetricId::kDiagnosticOddsRatio, rng)
                             .score(Property::kDefinedness);
  EXPECT_GT(recall_def, dor_def);
}

TEST_F(PropertyAssessorTest, NormalizationReflectsBoundedness) {
  stats::Rng rng(8);
  EXPECT_DOUBLE_EQ(
      assessor_.assess(MetricId::kPrecision, rng).score(Property::kNormalization),
      1.0);
  EXPECT_DOUBLE_EQ(
      assessor_.assess(MetricId::kLrPlus, rng).score(Property::kNormalization),
      0.0);
}

TEST_F(PropertyAssessorTest, OnlyCostMetricsAreCostAware) {
  stats::Rng rng(9);
  EXPECT_DOUBLE_EQ(assessor_.assess(MetricId::kNormalizedExpectedCost, rng)
                       .score(Property::kCostAwareness),
                   1.0);
  EXPECT_DOUBLE_EQ(assessor_.assess(MetricId::kWeightedBalancedAccuracy, rng)
                       .score(Property::kCostAwareness),
                   1.0);
  EXPECT_DOUBLE_EQ(assessor_.assess(MetricId::kFMeasure, rng)
                       .score(Property::kCostAwareness),
                   0.0);
}

TEST_F(PropertyAssessorTest, AssessAllCoversCatalogue) {
  stats::Rng rng(10);
  const std::vector<MetricAssessment> all = assessor_.assess_all(rng);
  ASSERT_EQ(all.size(), kMetricCount);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].metric, all_metrics()[i]);
}

TEST_F(PropertyAssessorTest, StabilityFavorsLargeSampleMetrs) {
  // Same metric, larger benchmarks -> higher stability score.
  AssessmentConfig small = fast_config();
  small.benchmark_items = 100;
  AssessmentConfig large = fast_config();
  large.benchmark_items = 4000;
  stats::Rng r1(11), r2(11);
  const double s_small = PropertyAssessor(small)
                             .assess(MetricId::kFMeasure, r1)
                             .score(Property::kStability);
  const double s_large = PropertyAssessor(large)
                             .assess(MetricId::kFMeasure, r2)
                             .score(Property::kStability);
  EXPECT_GT(s_large, s_small);
}

}  // namespace
}  // namespace vdbench::core
