// Algebraic property sweeps over the metric catalogue on random
// benchmarks: scale invariance, complement identities, and cross-metric
// relations that must hold exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "core/sampling.h"
#include "stats/rng.h"

namespace vdbench::core {
namespace {

std::vector<ConfusionMatrix> random_matrices(std::size_t n,
                                             std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<ConfusionMatrix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const DetectorProfile d{rng.uniform(), rng.uniform()};
    out.push_back(
        sample_confusion(d, rng.uniform(0.01, 0.6), 400, rng));
  }
  return out;
}

class MetricAlgebraTest : public ::testing::TestWithParam<MetricId> {};

INSTANTIATE_TEST_SUITE_P(
    Catalogue, MetricAlgebraTest,
    ::testing::ValuesIn(all_metrics().begin(), all_metrics().end()),
    [](const ::testing::TestParamInfo<MetricId>& info) {
      return std::string(metric_info(info.param).key);
    });

TEST_P(MetricAlgebraTest, ScaleInvariantUnderCountMultiplication) {
  // Multiplying every confusion count by k leaves every catalogue metric
  // unchanged (the abstract context derives operational fields from
  // totals, so they scale coherently too).
  for (const ConfusionMatrix& cm : random_matrices(30, 42)) {
    ConfusionMatrix scaled = cm;
    scaled.tp *= 7;
    scaled.fp *= 7;
    scaled.tn *= 7;
    scaled.fn *= 7;
    const double v = compute_metric(
        GetParam(), make_abstract_context(cm, 5.0, 1.0));
    const double v_scaled = compute_metric(
        GetParam(), make_abstract_context(scaled, 5.0, 1.0));
    if (!std::isfinite(v) || !std::isfinite(v_scaled)) {
      // Definedness must also be scale-invariant.
      EXPECT_EQ(std::isfinite(v), std::isfinite(v_scaled))
          << metric_info(GetParam()).key << " on " << cm.to_string();
      continue;
    }
    EXPECT_NEAR(v, v_scaled, 1e-9)
        << metric_info(GetParam()).key << " on " << cm.to_string();
  }
}

TEST(MetricIdentityTest, ComplementPairsSumToOne) {
  for (const ConfusionMatrix& cm : random_matrices(50, 7)) {
    const EvalContext ctx = make_abstract_context(cm, 1.0, 1.0);
    const auto pair_sums_to_one = [&](MetricId a, MetricId b) {
      const double va = compute_metric(a, ctx);
      const double vb = compute_metric(b, ctx);
      if (std::isfinite(va) && std::isfinite(vb)) {
        EXPECT_NEAR(va + vb, 1.0, 1e-12)
            << metric_info(a).key << "+" << metric_info(b).key;
      }
    };
    pair_sums_to_one(MetricId::kAccuracy, MetricId::kErrorRate);
    pair_sums_to_one(MetricId::kRecall, MetricId::kFnRate);
    pair_sums_to_one(MetricId::kSpecificity, MetricId::kFpRate);
    pair_sums_to_one(MetricId::kPrecision, MetricId::kFdRate);
    pair_sums_to_one(MetricId::kNpv, MetricId::kFoRate);
  }
}

TEST(MetricIdentityTest, MccIsGeometricMeanOfJAndMarkednessWhenPositive) {
  for (const ConfusionMatrix& cm : random_matrices(60, 9)) {
    const EvalContext ctx = make_abstract_context(cm, 1.0, 1.0);
    const double mcc = compute_metric(MetricId::kMcc, ctx);
    const double j = compute_metric(MetricId::kInformedness, ctx);
    const double mk = compute_metric(MetricId::kMarkedness, ctx);
    if (!std::isfinite(mcc) || !std::isfinite(j) || !std::isfinite(mk))
      continue;
    if (j <= 0.0 || mk <= 0.0) continue;
    EXPECT_NEAR(mcc, std::sqrt(j * mk), 1e-9) << cm.to_string();
  }
}

TEST(MetricIdentityTest, FowlkesMallowsBoundsF1) {
  // Geometric mean >= harmonic mean: FM >= F1 always, equality iff P == R.
  for (const ConfusionMatrix& cm : random_matrices(60, 11)) {
    const EvalContext ctx = make_abstract_context(cm, 1.0, 1.0);
    const double fm = compute_metric(MetricId::kFowlkesMallows, ctx);
    const double f1 = compute_metric(MetricId::kFMeasure, ctx);
    if (!std::isfinite(fm) || !std::isfinite(f1)) continue;
    EXPECT_GE(fm, f1 - 1e-12) << cm.to_string();
  }
}

TEST(MetricIdentityTest, BalancedAccuracyIsAffineInformedness) {
  for (const ConfusionMatrix& cm : random_matrices(40, 13)) {
    const EvalContext ctx = make_abstract_context(cm, 1.0, 1.0);
    const double ba = compute_metric(MetricId::kBalancedAccuracy, ctx);
    const double j = compute_metric(MetricId::kInformedness, ctx);
    if (!std::isfinite(ba) || !std::isfinite(j)) continue;
    EXPECT_NEAR(ba, (j + 1.0) / 2.0, 1e-12);
  }
}

TEST(MetricIdentityTest, EqualCostsMakeWbaEqualBalancedAccuracy) {
  for (const ConfusionMatrix& cm : random_matrices(40, 17)) {
    const EvalContext ctx = make_abstract_context(cm, 3.0, 3.0);
    const double wba =
        compute_metric(MetricId::kWeightedBalancedAccuracy, ctx);
    const double ba = compute_metric(MetricId::kBalancedAccuracy, ctx);
    if (!std::isfinite(wba) || !std::isfinite(ba)) continue;
    EXPECT_NEAR(wba, ba, 1e-12);
  }
}

TEST(MetricIdentityTest, NecEqualsErrorRateUnderUnitCosts) {
  for (const ConfusionMatrix& cm : random_matrices(40, 19)) {
    const EvalContext ctx = make_abstract_context(cm, 1.0, 1.0);
    const double nec =
        compute_metric(MetricId::kNormalizedExpectedCost, ctx);
    const double err = compute_metric(MetricId::kErrorRate, ctx);
    if (!std::isfinite(nec) || !std::isfinite(err)) continue;
    EXPECT_NEAR(nec, err, 1e-12) << cm.to_string();
  }
}

}  // namespace
}  // namespace vdbench::core
