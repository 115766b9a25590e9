#include "core/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sampling.h"
#include "stats/rng.h"

namespace vdbench::core {
namespace {

// Canonical confusion matrix used by the hand-computed expectations:
// TP=40, FP=10, TN=930, FN=20 (N=1000, prevalence 6%).
EvalContext canonical_context() {
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = 40, .fp = 10, .tn = 930, .fn = 20};
  ctx.cost_fn = 5.0;
  ctx.cost_fp = 1.0;
  ctx.analysis_seconds = 50.0;
  ctx.kloc = 25.0;
  ctx.auc = 0.91;
  return ctx;
}

double metric(MetricId id, const EvalContext& ctx = canonical_context()) {
  return compute_metric(id, ctx);
}

TEST(MetricValuesTest, Precision) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kPrecision), 0.8);
}

TEST(MetricValuesTest, Recall) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kRecall), 40.0 / 60.0);
}

TEST(MetricValuesTest, F1IsHarmonicMean) {
  const double p = 0.8, r = 40.0 / 60.0;
  EXPECT_DOUBLE_EQ(metric(MetricId::kFMeasure), 2.0 * p * r / (p + r));
}

TEST(MetricValuesTest, FBetaOrderingFollowsPrecisionRecallImbalance) {
  // Here precision > recall, so F0.5 (precision-weighted) > F1 > F2.
  EXPECT_GT(metric(MetricId::kFHalf), metric(MetricId::kFMeasure));
  EXPECT_GT(metric(MetricId::kFMeasure), metric(MetricId::kF2));
}

TEST(MetricValuesTest, Jaccard) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kJaccard), 40.0 / 70.0);
}

TEST(MetricValuesTest, FowlkesMallows) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kFowlkesMallows),
                   std::sqrt(0.8 * 40.0 / 60.0));
}

TEST(MetricValuesTest, SpecificityAndFpr) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kSpecificity), 930.0 / 940.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kFpRate), 10.0 / 940.0);
}

TEST(MetricValuesTest, NpvAndRates) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kNpv), 930.0 / 950.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kFnRate), 20.0 / 60.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kFdRate), 0.2);
  EXPECT_DOUBLE_EQ(metric(MetricId::kFoRate), 20.0 / 950.0);
}

TEST(MetricValuesTest, LikelihoodRatios) {
  const double tpr = 40.0 / 60.0, fpr = 10.0 / 940.0;
  EXPECT_DOUBLE_EQ(metric(MetricId::kLrPlus), tpr / fpr);
  EXPECT_DOUBLE_EQ(metric(MetricId::kLrMinus),
                   (20.0 / 60.0) / (930.0 / 940.0));
}

TEST(MetricValuesTest, DiagnosticOddsRatio) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kDiagnosticOddsRatio),
                   (40.0 * 930.0) / (10.0 * 20.0));
}

TEST(MetricValuesTest, PrevalenceThreshold) {
  const double tpr = 40.0 / 60.0, fpr = 10.0 / 940.0;
  EXPECT_DOUBLE_EQ(metric(MetricId::kPrevalenceThreshold),
                   std::sqrt(fpr) / (std::sqrt(tpr) + std::sqrt(fpr)));
}

TEST(MetricValuesTest, AccuracyAndErrorRate) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kAccuracy), 0.97);
  EXPECT_DOUBLE_EQ(metric(MetricId::kErrorRate), 0.03);
  EXPECT_DOUBLE_EQ(
      metric(MetricId::kAccuracy) + metric(MetricId::kErrorRate), 1.0);
}

TEST(MetricValuesTest, BalancedAccuracyAndGMean) {
  const double tpr = 40.0 / 60.0, tnr = 930.0 / 940.0;
  EXPECT_DOUBLE_EQ(metric(MetricId::kBalancedAccuracy), (tpr + tnr) / 2.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kGMean), std::sqrt(tpr * tnr));
}

TEST(MetricValuesTest, MccHandComputed) {
  const double num = 40.0 * 930.0 - 10.0 * 20.0;
  const double den = std::sqrt(50.0 * 60.0 * 940.0 * 950.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kMcc), num / den);
}

TEST(MetricValuesTest, InformednessAndMarkedness) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kInformedness),
                   40.0 / 60.0 + 930.0 / 940.0 - 1.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kMarkedness),
                   0.8 + 930.0 / 950.0 - 1.0);
}

TEST(MetricValuesTest, MccIsGeometricMeanOfInformednessMarkedness) {
  // For a positive association, MCC = sqrt(J * markedness).
  const double j = metric(MetricId::kInformedness);
  const double mk = metric(MetricId::kMarkedness);
  EXPECT_NEAR(metric(MetricId::kMcc), std::sqrt(j * mk), 1e-12);
}

TEST(MetricValuesTest, KappaHandComputed) {
  const double po = 0.97;
  const double pe = (50.0 / 1000.0) * (60.0 / 1000.0) +
                    (950.0 / 1000.0) * (940.0 / 1000.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kKappa), (po - pe) / (1.0 - pe));
}

TEST(MetricValuesTest, AucPassesThroughContext) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kAuc), 0.91);
}

TEST(MetricValuesTest, NormalizedExpectedCost) {
  const double cost = 1.0 * 10.0 + 5.0 * 20.0;
  const double worst = 1.0 * 940.0 + 5.0 * 60.0;
  EXPECT_DOUBLE_EQ(metric(MetricId::kNormalizedExpectedCost), cost / worst);
}

TEST(MetricValuesTest, WeightedBalancedAccuracy) {
  const double w = 5.0 / 6.0;
  EXPECT_DOUBLE_EQ(metric(MetricId::kWeightedBalancedAccuracy),
                   w * (40.0 / 60.0) + (1.0 - w) * (930.0 / 940.0));
}

TEST(MetricValuesTest, OperationalMetrics) {
  EXPECT_DOUBLE_EQ(metric(MetricId::kPrevalence), 0.06);
  EXPECT_DOUBLE_EQ(metric(MetricId::kAlarmDensity), 50.0 / 25.0);
  EXPECT_DOUBLE_EQ(metric(MetricId::kAnalysisThroughput), 0.5);
  EXPECT_DOUBLE_EQ(metric(MetricId::kTimePerDetection), 50.0 / 40.0);
}

TEST(MetricValuesTest, OperationalMetricsUndefinedWithoutMeasurements) {
  EvalContext ctx = canonical_context();
  ctx.analysis_seconds = std::numeric_limits<double>::quiet_NaN();
  ctx.kloc = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(compute_metric(MetricId::kAlarmDensity, ctx)));
  EXPECT_TRUE(std::isnan(compute_metric(MetricId::kAnalysisThroughput, ctx)));
  EXPECT_TRUE(std::isnan(compute_metric(MetricId::kTimePerDetection, ctx)));
}

TEST(MetricEdgeCasesTest, PerfectClassifier) {
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = 100, .fp = 0, .tn = 900, .fn = 0};
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kPrecision, ctx), 1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kRecall, ctx), 1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kFMeasure, ctx), 1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kMcc, ctx), 1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kInformedness, ctx), 1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kKappa, ctx), 1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kNormalizedExpectedCost, ctx),
                   0.0);
}

TEST(MetricEdgeCasesTest, WorstClassifier) {
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = 0, .fp = 900, .tn = 0, .fn = 100};
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kRecall, ctx), 0.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kMcc, ctx), -1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kInformedness, ctx), -1.0);
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kNormalizedExpectedCost, ctx),
                   1.0);
}

TEST(MetricEdgeCasesTest, SilentToolHasZeroF1NotNaN) {
  // A tool reporting nothing: precision undefined but F handled as 0 only
  // when both P and R are zero; here precision is NaN so F is NaN.
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = 0, .fp = 0, .tn = 90, .fn = 10};
  EXPECT_TRUE(std::isnan(compute_metric(MetricId::kPrecision, ctx)));
  EXPECT_TRUE(std::isnan(compute_metric(MetricId::kFMeasure, ctx)));
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kRecall, ctx), 0.0);
}

TEST(MetricEdgeCasesTest, AllWrongPredictionsGiveZeroF1) {
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = 0, .fp = 10, .tn = 80, .fn = 10};
  EXPECT_DOUBLE_EQ(compute_metric(MetricId::kFMeasure, ctx), 0.0);
}

TEST(MetricEdgeCasesTest, LrPlusInfiniteForPerfectSpecificity) {
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = 50, .fp = 0, .tn = 900, .fn = 50};
  EXPECT_TRUE(std::isinf(compute_metric(MetricId::kLrPlus, ctx)));
}

TEST(MetricEdgeCasesTest, KappaUndefinedWhenChanceAgreementIsOne) {
  EvalContext ctx;
  ctx.cm = ConfusionMatrix{.tp = 0, .fp = 0, .tn = 100, .fn = 0};
  EXPECT_TRUE(std::isnan(compute_metric(MetricId::kKappa, ctx)));
}

TEST(MetricRegistryTest, CatalogueHasExpectedSize) {
  EXPECT_EQ(all_metrics().size(), kMetricCount);
  EXPECT_EQ(all_metrics().size(), 32u);
}

TEST(MetricRegistryTest, InfoIdsMatchEnumOrder) {
  const auto metrics = all_metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(metrics[i]), i);
    EXPECT_EQ(metric_info(metrics[i]).id, metrics[i]);
  }
}

TEST(MetricRegistryTest, KeysAreUniqueAndResolvable) {
  std::set<std::string> keys;
  for (const MetricId id : all_metrics()) {
    const std::string key(metric_info(id).key);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
    const auto resolved = metric_from_key(key);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, id);
  }
  EXPECT_FALSE(metric_from_key("no_such_metric").has_value());
}

TEST(MetricRegistryTest, RankingMetricsExcludeDescriptive) {
  const auto ranking = ranking_metrics();
  EXPECT_EQ(ranking.size(), kMetricCount - 2);  // prevalence, alarm density
  for (const MetricId id : ranking)
    EXPECT_NE(metric_info(id).direction, Direction::kNone);
}

TEST(MetricRegistryTest, CostAwareFlagMatchesCategory) {
  for (const MetricId id : all_metrics()) {
    const MetricInfo& info = metric_info(id);
    EXPECT_EQ(info.cost_aware,
              info.category == MetricCategory::kCostBased)
        << info.key;
  }
}

TEST(MetricRegistryTest, UtilityRespectsDirection) {
  EXPECT_DOUBLE_EQ(metric_utility(MetricId::kPrecision, 0.7), 0.7);
  EXPECT_DOUBLE_EQ(metric_utility(MetricId::kFpRate, 0.7), -0.7);
  EXPECT_TRUE(std::isnan(metric_utility(MetricId::kPrevalence, 0.7)));
  EXPECT_TRUE(std::isnan(metric_utility(MetricId::kPrecision,
                                        std::nan(""))));
}

TEST(MetricRegistryTest, ComputeAllMatchesIndividual) {
  const EvalContext ctx = canonical_context();
  std::vector<double> all(kMetricCount);
  compute_all_metrics(ctx, all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double single = compute_metric(all_metrics()[i], ctx);
    if (std::isnan(single))
      EXPECT_TRUE(std::isnan(all[i]));
    else
      EXPECT_DOUBLE_EQ(all[i], single);
  }
  std::vector<double> wrong(kMetricCount - 1);
  EXPECT_THROW(compute_all_metrics(ctx, wrong), std::invalid_argument);
}

TEST(MetricRegistryTest, NamesAreDisplayable) {
  for (const MetricId id : all_metrics()) {
    const MetricInfo& info = metric_info(id);
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.formula.empty());
    EXPECT_FALSE(category_name(info.category).empty());
    EXPECT_FALSE(direction_name(info.direction).empty());
  }
}

// ---------------------------------------------------------------------------
// Parameterized property sweeps over the whole catalogue.

class AllMetricsTest : public ::testing::TestWithParam<MetricId> {};

INSTANTIATE_TEST_SUITE_P(
    Catalogue, AllMetricsTest, ::testing::ValuesIn(all_metrics().begin(),
                                                   all_metrics().end()),
    [](const ::testing::TestParamInfo<MetricId>& info) {
      return std::string(metric_info(info.param).key);
    });

TEST_P(AllMetricsTest, ValuesStayInDeclaredRangeOnRandomBenchmarks) {
  const MetricInfo& info = metric_info(GetParam());
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()) + 777);
  for (int trial = 0; trial < 200; ++trial) {
    DetectorProfile d{rng.uniform(), rng.uniform()};
    const ConfusionMatrix cm =
        sample_confusion(d, rng.uniform(0.0, 0.6), 200, rng);
    const EvalContext ctx = make_abstract_context(cm, 5.0, 1.0);
    const double v = compute_metric(GetParam(), ctx);
    if (std::isnan(v)) continue;  // undefined is allowed
    EXPECT_GE(v, info.range_lo) << info.key << " on " << cm.to_string();
    EXPECT_LE(v, info.range_hi) << info.key << " on " << cm.to_string();
  }
}

TEST_P(AllMetricsTest, DeclaredPrevalenceInvarianceHoldsAsymptotically) {
  const MetricInfo& info = metric_info(GetParam());
  if (info.direction == Direction::kNone) GTEST_SKIP();
  // Operational time/throughput metrics depend on workload size, not
  // prevalence, but the abstract context derives time from total items
  // only; prevalence invariance still applies.
  const double sens = 0.7, fallout = 0.08;
  const ConfusionMatrix lo_cm =
      expected_confusion(sens, fallout, 0.02, 4'000'000);
  const ConfusionMatrix hi_cm =
      expected_confusion(sens, fallout, 0.40, 4'000'000);
  const double lo = compute_metric(GetParam(),
                                   make_abstract_context(lo_cm, 5.0, 1.0));
  const double hi = compute_metric(GetParam(),
                                   make_abstract_context(hi_cm, 5.0, 1.0));
  if (!std::isfinite(lo) || !std::isfinite(hi)) GTEST_SKIP();
  const double scale = std::max({std::abs(lo), std::abs(hi), 1e-9});
  const double drift = std::abs(hi - lo) / scale;
  if (info.prevalence_invariant) {
    EXPECT_LT(drift, 0.02) << info.key << " lo=" << lo << " hi=" << hi;
  } else {
    EXPECT_GT(drift, 0.02) << info.key << " lo=" << lo << " hi=" << hi;
  }
}

TEST_P(AllMetricsTest, BetterToolNeverScoresWorseAsymptotically) {
  const MetricInfo& info = metric_info(GetParam());
  if (info.direction == Direction::kNone) GTEST_SKIP();
  // Time-based operational metrics are quality-blind by design; the
  // abstract context gives both tools identical time, so skip direction
  // reasoning there.
  const double prev = 0.1;
  const auto utility = [&](double sens, double fallout) {
    const ConfusionMatrix cm =
        expected_confusion(sens, fallout, prev, 2'000'000);
    return metric_utility(GetParam(),
                          compute_metric(GetParam(),
                                         make_abstract_context(cm, 5.0, 1.0)));
  };
  const double worse = utility(0.6, 0.10);
  const double better_sens = utility(0.75, 0.10);
  const double better_fallout = utility(0.6, 0.05);
  if (std::isfinite(worse) && std::isfinite(better_sens)) {
    EXPECT_GE(better_sens, worse) << info.key;
  }
  if (std::isfinite(worse) && std::isfinite(better_fallout)) {
    EXPECT_GE(better_fallout, worse) << info.key;
  }
}

}  // namespace
}  // namespace vdbench::core
