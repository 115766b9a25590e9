#include "core/sampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/hypothesis.h"

namespace vdbench::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(DetectorProfileTest, ValidationRejectsOutOfRange) {
  EXPECT_NO_THROW((DetectorProfile{0.5, 0.1}.validate()));
  EXPECT_THROW((DetectorProfile{-0.1, 0.1}.validate()), std::invalid_argument);
  EXPECT_THROW((DetectorProfile{0.5, 1.2}.validate()), std::invalid_argument);
  EXPECT_THROW((DetectorProfile{kNaN, 0.1}.validate()), std::invalid_argument);
  EXPECT_THROW((DetectorProfile{0.5, kNaN}.validate()), std::invalid_argument);
}

TEST(SampleConfusionTest, CountsAddUp) {
  stats::Rng rng(1);
  const DetectorProfile d{0.7, 0.1};
  const ConfusionMatrix cm = sample_confusion(d, 0.2, 1000, rng);
  EXPECT_EQ(cm.total(), 1000u);
  EXPECT_EQ(cm.actual_positives(), 200u);
  EXPECT_EQ(cm.actual_negatives(), 800u);
}

TEST(SampleConfusionTest, DeterministicGivenSeed) {
  const DetectorProfile d{0.6, 0.05};
  stats::Rng a(9), b(9);
  EXPECT_EQ(sample_confusion(d, 0.1, 500, a),
            sample_confusion(d, 0.1, 500, b));
}

TEST(SampleConfusionTest, RejectsNanPrevalence) {
  // A NaN prevalence used to pass the range check; llround(NaN) then asked
  // the binomial for about 2^63 positives.
  stats::Rng rng(4);
  EXPECT_THROW(sample_confusion(DetectorProfile{0.7, 0.1}, kNaN, 500, rng),
               std::invalid_argument);
}

TEST(SampleConfusionTest, ExtremeProfiles) {
  stats::Rng rng(2);
  const ConfusionMatrix perfect =
      sample_confusion(DetectorProfile{1.0, 0.0}, 0.1, 1000, rng);
  EXPECT_EQ(perfect.tp, 100u);
  EXPECT_EQ(perfect.fn, 0u);
  EXPECT_EQ(perfect.fp, 0u);
  const ConfusionMatrix blind =
      sample_confusion(DetectorProfile{0.0, 0.0}, 0.1, 1000, rng);
  EXPECT_EQ(blind.tp, 0u);
  EXPECT_EQ(blind.fn, 100u);
}

TEST(SampleConfusionTest, MeansMatchProfile) {
  stats::Rng rng(3);
  const DetectorProfile d{0.65, 0.12};
  double tp = 0.0, fp = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const ConfusionMatrix cm = sample_confusion(d, 0.25, 1000, rng);
    tp += static_cast<double>(cm.tp);
    fp += static_cast<double>(cm.fp);
  }
  EXPECT_NEAR(tp / trials, 0.65 * 250.0, 2.0);
  EXPECT_NEAR(fp / trials, 0.12 * 750.0, 2.0);
}

TEST(ExpectedCostTest, HandComputed) {
  const DetectorProfile d{0.8, 0.1};
  // 0.2 miss rate on 10% prevalence at cost 5 + 10% fallout on 90% at 1.
  EXPECT_DOUBLE_EQ(expected_cost(d, 0.1, 5.0, 1.0),
                   0.1 * 0.2 * 5.0 + 0.9 * 0.1 * 1.0);
}

TEST(ExpectedCostTest, PerfectToolCostsNothing) {
  EXPECT_DOUBLE_EQ(expected_cost(DetectorProfile{1.0, 0.0}, 0.3, 7.0, 2.0),
                   0.0);
}

TEST(ExpectedCostTest, DominatingToolCostsLess) {
  const DetectorProfile better{0.9, 0.05};
  const DetectorProfile worse{0.7, 0.15};
  EXPECT_LT(expected_cost(better, 0.1, 5.0, 1.0),
            expected_cost(worse, 0.1, 5.0, 1.0));
}

TEST(ExpectedCostTest, RejectsNegativeCosts) {
  EXPECT_THROW(expected_cost(DetectorProfile{0.5, 0.1}, 0.1, -1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(expected_cost(DetectorProfile{0.5, 0.1}, 0.1, 5.0, kNaN),
               std::invalid_argument);
  EXPECT_THROW(expected_cost(DetectorProfile{0.5, 0.1}, kNaN, 5.0, 1.0),
               std::invalid_argument);
}

TEST(BinormalAucTest, SymmetricOperatingPointGivesHalf) {
  EXPECT_NEAR(binormal_auc(0.5, 0.5), 0.5, 1e-9);
}

TEST(BinormalAucTest, BetterSeparationGivesHigherAuc) {
  EXPECT_GT(binormal_auc(0.9, 0.05), binormal_auc(0.7, 0.1));
  EXPECT_GT(binormal_auc(0.7, 0.1), binormal_auc(0.55, 0.45));
}

TEST(BinormalAucTest, DegenerateRatesAreNaN) {
  EXPECT_TRUE(std::isnan(binormal_auc(1.0, 0.1)));
  EXPECT_TRUE(std::isnan(binormal_auc(0.5, 0.0)));
}

TEST(BinormalAucTest, KnownValue) {
  // sens = Phi(1), fallout = Phi(-1): d' = 2, AUC = Phi(sqrt(2)).
  const double sens = stats::normal_cdf(1.0);
  const double fallout = stats::normal_cdf(-1.0);
  EXPECT_NEAR(binormal_auc(sens, fallout),
              stats::normal_cdf(2.0 / std::sqrt(2.0)), 1e-9);
}

TEST(MakeAbstractContextTest, DerivesOperationalFields) {
  const ConfusionMatrix cm{.tp = 40, .fp = 10, .tn = 930, .fn = 20};
  const EvalContext ctx = make_abstract_context(cm, 5.0, 2.0);
  EXPECT_DOUBLE_EQ(ctx.cost_fn, 5.0);
  EXPECT_DOUBLE_EQ(ctx.cost_fp, 2.0);
  EXPECT_DOUBLE_EQ(ctx.kloc, 50.0);  // 1000 sites / 20 per kLoC
  EXPECT_DOUBLE_EQ(ctx.analysis_seconds, 50.0);
  EXPECT_TRUE(std::isfinite(ctx.auc));
  EXPECT_GT(ctx.auc, 0.5);
}

TEST(MakeAbstractContextTest, CustomSettings) {
  const ConfusionMatrix cm{.tp = 10, .fp = 0, .tn = 80, .fn = 10};
  AbstractBenchmarkSettings settings;
  settings.sites_per_kloc = 10.0;
  settings.kloc_per_second = 2.0;
  const EvalContext ctx = make_abstract_context(cm, 1.0, 1.0, settings);
  EXPECT_DOUBLE_EQ(ctx.kloc, 10.0);
  EXPECT_DOUBLE_EQ(ctx.analysis_seconds, 5.0);
  EXPECT_THROW(
      make_abstract_context(cm, 1.0, 1.0, AbstractBenchmarkSettings{0.0, 1.0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::core
