#include "vdsim/campaign.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vdbench::vdsim {
namespace {

WorkloadSpec small_spec() {
  WorkloadSpec spec;
  spec.num_services = 50;
  spec.prevalence = 0.12;
  return spec;
}

TEST(RankToolsTest, OrdersByUtility) {
  WorkloadSpec spec = small_spec();
  spec.num_services = 250;
  stats::Rng wrng(1);
  const Workload w = generate_workload(spec, wrng);
  const std::vector<ToolProfile> tools = {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.25, "t-weak"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.90, "t-strong"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.55, "t-mid"),
  };
  stats::Rng rng(2);
  const auto results = run_benchmarks(tools, w, CostModel{}, rng);
  const auto order = rank_tools_by_metric(results, core::MetricId::kMcc);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(RankToolsTest, LowerBetterMetricReversed) {
  WorkloadSpec spec = small_spec();
  spec.num_services = 250;
  stats::Rng wrng(3);
  const Workload w = generate_workload(spec, wrng);
  const std::vector<ToolProfile> tools = {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.9, "strong"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.3, "weak"),
  };
  stats::Rng rng(4);
  const auto results = run_benchmarks(tools, w, CostModel{5.0, 1.0}, rng);
  const auto order =
      rank_tools_by_metric(results, core::MetricId::kNormalizedExpectedCost);
  EXPECT_EQ(order[0], 0u);  // strong tool has lower cost -> ranked first
}

TEST(RankToolsTest, UndefinedValuesSortLast) {
  const Workload w = [&] {
    stats::Rng wrng(5);
    return generate_workload(small_spec(), wrng);
  }();
  ToolProfile silent =
      make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "silent");
  silent.sensitivity.fill(0.0);
  silent.fallout = 0.0;  // precision undefined
  const std::vector<ToolProfile> tools = {
      silent,
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.6, "normal"),
  };
  stats::Rng rng(6);
  const auto results = run_benchmarks(tools, w, CostModel{}, rng);
  const auto order =
      rank_tools_by_metric(results, core::MetricId::kPrecision);
  EXPECT_EQ(order.back(), 0u);
}

TEST(RankToolsTest, RejectsDescriptiveMetric) {
  const std::vector<BenchmarkResult> empty;
  EXPECT_THROW(rank_tools_by_metric(empty, core::MetricId::kPrevalence),
               std::invalid_argument);
}

TEST(MetricAgreementTest, MatrixWellFormed) {
  const std::vector<core::MetricId> metrics = {
      core::MetricId::kPrecision, core::MetricId::kRecall,
      core::MetricId::kFMeasure, core::MetricId::kMcc};
  stats::Rng rng(7);
  const AgreementMatrix agreement =
      metric_agreement(metrics, small_spec(), 20, 6, CostModel{}, rng);
  ASSERT_EQ(agreement.metrics.size(), 4u);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      const double tau = agreement.tau(a, b);
      if (std::isfinite(tau)) {
        EXPECT_GE(tau, -1.0);
        EXPECT_LE(tau, 1.0 + 1e-12);
        EXPECT_NEAR(tau, agreement.tau(b, a), 1e-12);
      }
    }
    if (agreement.valid_populations(a, a) > 0) {
      EXPECT_NEAR(agreement.tau(a, a), 1.0, 1e-12);
    }
  }
}

TEST(MetricAgreementTest, CorrelatedMetricsAgreeMoreThanOpposed) {
  // F1 and MCC track each other closely; recall and precision trade off.
  const std::vector<core::MetricId> metrics = {
      core::MetricId::kFMeasure, core::MetricId::kMcc,
      core::MetricId::kRecall, core::MetricId::kPrecision};
  stats::Rng rng(8);
  const AgreementMatrix agreement =
      metric_agreement(metrics, small_spec(), 40, 8, CostModel{}, rng);
  EXPECT_GT(agreement.tau(0, 1), agreement.tau(2, 3));
}

TEST(MetricAgreementTest, RejectsBadArguments) {
  stats::Rng rng(9);
  const std::vector<core::MetricId> one = {core::MetricId::kMcc};
  EXPECT_THROW(metric_agreement(one, small_spec(), 5, 5, CostModel{}, rng),
               std::invalid_argument);
  const std::vector<core::MetricId> with_descriptive = {
      core::MetricId::kMcc, core::MetricId::kPrevalence};
  EXPECT_THROW(metric_agreement(with_descriptive, small_spec(), 5, 5,
                                CostModel{}, rng),
               std::invalid_argument);
  const std::vector<core::MetricId> two = {core::MetricId::kMcc,
                                           core::MetricId::kFMeasure};
  EXPECT_THROW(metric_agreement(two, small_spec(), 0, 5, CostModel{}, rng),
               std::invalid_argument);
  EXPECT_THROW(metric_agreement(two, small_spec(), 5, 2, CostModel{}, rng),
               std::invalid_argument);
}

TEST(PrevalenceSweepTest, AccuracyDriftsRecallDoesNot) {
  const ToolProfile tool =
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.7, "probe");
  WorkloadSpec spec = small_spec();
  spec.num_services = 1500;
  const std::vector<double> grid = {0.01, 0.05, 0.2, 0.4};
  const std::vector<core::MetricId> metrics = {core::MetricId::kAccuracy,
                                               core::MetricId::kRecall};
  stats::Rng rng(10);
  const auto points =
      prevalence_sweep(tool, spec, grid, metrics, CostModel{}, rng);
  ASSERT_EQ(points.size(), grid.size());
  double acc_min = 1.0, acc_max = 0.0, rec_min = 1.0, rec_max = 0.0;
  for (const PrevalencePoint& p : points) {
    acc_min = std::min(acc_min, p.metric_values[0]);
    acc_max = std::max(acc_max, p.metric_values[0]);
    rec_min = std::min(rec_min, p.metric_values[1]);
    rec_max = std::max(rec_max, p.metric_values[1]);
  }
  EXPECT_GT(acc_max - acc_min, 0.05) << "accuracy should drift";
  EXPECT_LT(rec_max - rec_min, 0.06) << "recall should stay flat";
}

TEST(PrevalenceSweepTest, RejectsEmptyGrid) {
  const ToolProfile tool = builtin_tools().front();
  stats::Rng rng(11);
  EXPECT_THROW(prevalence_sweep(tool, small_spec(), {}, {}, CostModel{}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::vdsim
