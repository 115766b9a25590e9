#include "core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace vdbench::core {
namespace {

ScenarioAnalyzer::Config fast_config() {
  ScenarioAnalyzer::Config cfg;
  cfg.pair_trials = 400;
  return cfg;
}

std::vector<MetricId> key_metrics() {
  return {MetricId::kPrecision, MetricId::kRecall, MetricId::kFMeasure,
          MetricId::kAccuracy, MetricId::kMcc, MetricId::kInformedness,
          MetricId::kNormalizedExpectedCost};
}

EffectivenessResult result_for(const std::vector<EffectivenessResult>& all,
                               MetricId id) {
  const auto it =
      std::find_if(all.begin(), all.end(),
                   [&](const EffectivenessResult& r) { return r.metric == id; });
  EXPECT_NE(it, all.end());
  return *it;
}

TEST(ScenarioAnalyzerTest, ConfigValidation) {
  ScenarioAnalyzer::Config cfg;
  cfg.pair_trials = 0;
  EXPECT_THROW(ScenarioAnalyzer{cfg}, std::invalid_argument);
  cfg = ScenarioAnalyzer::Config{};
  cfg.min_relative_cost_gap = 1.0;
  EXPECT_THROW(ScenarioAnalyzer{cfg}, std::invalid_argument);
}

TEST(ScenarioAnalyzerTest, ResultsWellFormed) {
  const ScenarioAnalyzer analyzer(fast_config());
  stats::Rng rng(1);
  const auto results =
      analyzer.analyze(builtin_scenario("s3_balanced"), key_metrics(), rng);
  ASSERT_EQ(results.size(), key_metrics().size());
  for (const EffectivenessResult& r : results) {
    EXPECT_GE(r.ranking_fidelity, 0.0);
    EXPECT_LE(r.ranking_fidelity, 1.0);
    EXPECT_GE(r.undefined_rate, 0.0);
    EXPECT_LE(r.undefined_rate, 1.0);
    EXPECT_EQ(r.trials, fast_config().pair_trials);
    EXPECT_GT(r.fidelity_se, 0.0);
    EXPECT_LT(r.fidelity_se, 0.05);
  }
}

TEST(ScenarioAnalyzerTest, DeterministicGivenSeed) {
  const ScenarioAnalyzer analyzer(fast_config());
  stats::Rng a(5), b(5);
  const auto ra =
      analyzer.analyze(builtin_scenario("s1_critical"), key_metrics(), a);
  const auto rb =
      analyzer.analyze(builtin_scenario("s1_critical"), key_metrics(), b);
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_DOUBLE_EQ(ra[i].ranking_fidelity, rb[i].ranking_fidelity);
}

TEST(ScenarioAnalyzerTest, QualityMetricsBeatChance) {
  const ScenarioAnalyzer analyzer(fast_config());
  stats::Rng rng(2);
  const auto results =
      analyzer.analyze(builtin_scenario("s3_balanced"), key_metrics(), rng);
  for (const EffectivenessResult& r : results)
    EXPECT_GT(r.ranking_fidelity, 0.55) << metric_info(r.metric).key;
}

TEST(ScenarioAnalyzerTest, CostMetricDominatesInItsOwnScenario) {
  // The normalized-expected-cost metric evaluates exactly the scenario's
  // cost model, so it must be among the most faithful metrics everywhere.
  const ScenarioAnalyzer analyzer(fast_config());
  for (const std::string key : {"s1_critical", "s2_budget", "s4_rare"}) {
    stats::Rng rng(3);
    const auto results =
        analyzer.analyze(builtin_scenario(key), key_metrics(), rng);
    const double nec =
        result_for(results, MetricId::kNormalizedExpectedCost)
            .ranking_fidelity;
    const double accuracy =
        result_for(results, MetricId::kAccuracy).ranking_fidelity;
    EXPECT_GE(nec, accuracy - 0.02) << key;
  }
}

TEST(ScenarioAnalyzerTest, RecallBeatsPrecisionWhenMissesAreCostly) {
  const ScenarioAnalyzer analyzer(fast_config());
  stats::Rng rng(4);
  const auto results =
      analyzer.analyze(builtin_scenario("s1_critical"), key_metrics(), rng);
  EXPECT_GT(result_for(results, MetricId::kRecall).ranking_fidelity,
            result_for(results, MetricId::kPrecision).ranking_fidelity);
}

TEST(ScenarioAnalyzerTest, PrecisionBeatsRecallUnderReviewBudget) {
  const ScenarioAnalyzer analyzer(fast_config());
  stats::Rng rng(5);
  const auto results =
      analyzer.analyze(builtin_scenario("s2_budget"), key_metrics(), rng);
  EXPECT_GT(result_for(results, MetricId::kPrecision).ranking_fidelity,
            result_for(results, MetricId::kRecall).ranking_fidelity);
}

TEST(MetricSelectorTest, RejectsBadWeight) {
  MetricSelector::Config cfg;
  cfg.effectiveness_weight = 1.5;
  EXPECT_THROW(MetricSelector{cfg}, std::invalid_argument);
}

class SelectorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const PropertyAssessor assessor([] {
      AssessmentConfig cfg;
      cfg.trials = 80;
      cfg.asymptotic_items = 100'000;
      return cfg;
    }());
    stats::Rng arng(11);
    assessments_ = assessor.assess_all(arng);
    const ScenarioAnalyzer analyzer(fast_config());
    stats::Rng erng(12);
    effectiveness_ = analyzer.analyze(builtin_scenario("s3_balanced"),
                                      ranking_metrics(), erng);
  }

  std::vector<MetricAssessment> assessments_;
  std::vector<EffectivenessResult> effectiveness_;
};

TEST_F(SelectorFixture, RankingIsSortedAndComplete) {
  const MetricSelector selector;
  const ScenarioRecommendation rec = selector.recommend(
      builtin_scenario("s3_balanced"), assessments_, effectiveness_);
  EXPECT_EQ(rec.scenario_key, "s3_balanced");
  EXPECT_EQ(rec.ranked.size(), ranking_metrics().size());
  for (std::size_t i = 0; i + 1 < rec.ranked.size(); ++i)
    EXPECT_GE(rec.ranked[i].overall, rec.ranked[i + 1].overall);
}

TEST_F(SelectorFixture, OverallBlendsComponents) {
  MetricSelector::Config cfg;
  cfg.effectiveness_weight = 0.7;
  const ScenarioRecommendation rec = MetricSelector(cfg).recommend(
      builtin_scenario("s3_balanced"), assessments_, effectiveness_);
  for (const MetricRecommendation& r : rec.ranked) {
    EXPECT_NEAR(r.overall,
                0.7 * r.effectiveness + 0.3 * r.property_score, 1e-12);
  }
}

TEST_F(SelectorFixture, PureEffectivenessWeightMatchesFidelityOrdering) {
  MetricSelector::Config cfg;
  cfg.effectiveness_weight = 1.0;
  const ScenarioRecommendation rec = MetricSelector(cfg).recommend(
      builtin_scenario("s3_balanced"), assessments_, effectiveness_);
  double best_fidelity = 0.0;
  for (const EffectivenessResult& r : effectiveness_)
    best_fidelity = std::max(best_fidelity, r.ranking_fidelity);
  EXPECT_DOUBLE_EQ(rec.best().overall, best_fidelity);
}

TEST_F(SelectorFixture, RankOfAndAccessors) {
  const MetricSelector selector;
  const ScenarioRecommendation rec = selector.recommend(
      builtin_scenario("s3_balanced"), assessments_, effectiveness_);
  EXPECT_EQ(rec.rank_of(rec.best().metric), 0u);
  const auto scores = rec.overall_scores_in_catalogue_order(ranking_metrics());
  EXPECT_EQ(scores.size(), ranking_metrics().size());
  EXPECT_THROW((void)ScenarioRecommendation{}.best(), std::out_of_range);
}

TEST_F(SelectorFixture, MissingAssessmentThrows) {
  const MetricSelector selector;
  const std::vector<MetricAssessment> empty;
  EXPECT_THROW(selector.recommend(builtin_scenario("s3_balanced"), empty,
                                  effectiveness_),
               std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::core
