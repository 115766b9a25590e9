#include "vdsim/suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace vdbench::vdsim {
namespace {

SuiteConfig small_config() {
  SuiteConfig cfg;
  cfg.workload.num_services = 60;
  cfg.workload.prevalence = 0.12;
  cfg.runs = 12;
  cfg.bootstrap_replicates = 300;
  return cfg;
}

std::vector<ToolProfile> two_tools(double q_good = 0.85, double q_bad = 0.35) {
  return {make_archetype_profile(ToolArchetype::kStaticAnalyzer, q_good,
                                 "good"),
          make_archetype_profile(ToolArchetype::kStaticAnalyzer, q_bad,
                                 "bad")};
}

const std::vector<core::MetricId> kMetrics = {core::MetricId::kFMeasure,
                                              core::MetricId::kMcc};

TEST(SuiteConfigTest, Validation) {
  SuiteConfig cfg = small_config();
  EXPECT_NO_THROW(cfg.validate());
  cfg.runs = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.confidence = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.bootstrap_replicates = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SuiteTest, ShapeAndDeterminism) {
  stats::Rng a(1), b(1);
  const SuiteResult ra = run_suite(two_tools(), kMetrics, small_config(), a);
  const SuiteResult rb = run_suite(two_tools(), kMetrics, small_config(), b);
  ASSERT_EQ(ra.tools.size(), 2u);
  ASSERT_EQ(ra.tools[0].metrics.size(), kMetrics.size());
  EXPECT_EQ(ra.comparisons.size(), kMetrics.size());  // one pair x metrics
  EXPECT_DOUBLE_EQ(ra.tools[0].metric(core::MetricId::kMcc).ci.estimate,
                   rb.tools[0].metric(core::MetricId::kMcc).ci.estimate);
}

TEST(SuiteTest, PerRunValuesCountMatchesRuns) {
  stats::Rng rng(2);
  const SuiteResult r = run_suite(two_tools(), kMetrics, small_config(), rng);
  for (const ToolEstimates& tool : r.tools) {
    for (const MetricEstimate& est : tool.metrics) {
      EXPECT_EQ(est.values.size() + est.undefined_runs,
                small_config().runs);
    }
  }
}

TEST(SuiteTest, CiBracketsEstimate) {
  stats::Rng rng(3);
  const SuiteResult r = run_suite(two_tools(), kMetrics, small_config(), rng);
  for (const ToolEstimates& tool : r.tools) {
    for (const MetricEstimate& est : tool.metrics) {
      ASSERT_FALSE(est.values.empty());
      EXPECT_LE(est.ci.lower, est.ci.estimate);
      EXPECT_GE(est.ci.upper, est.ci.estimate);
    }
  }
}

TEST(SuiteTest, ClearQualityGapIsSignificant) {
  stats::Rng rng(4);
  const SuiteResult r =
      run_suite(two_tools(0.9, 0.3), kMetrics, small_config(), rng);
  for (const PairwiseComparison& cmp : r.comparisons) {
    EXPECT_TRUE(cmp.significant())
        << core::metric_info(cmp.metric).key << " p=" << cmp.welch.p_value;
    EXPECT_GT(cmp.mean_a, cmp.mean_b);  // "good" listed first
    EXPECT_GT(cmp.probability_superiority, 0.9);
  }
}

TEST(SuiteTest, NearIdenticalToolsAreNotSignificant) {
  // Any single seed can produce a spurious rejection at alpha = 0.05, so
  // pool a few campaigns: a 0.01 quality gap must not be resolvable in the
  // majority of 12-run campaigns.
  std::size_t significant = 0, total = 0;
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    stats::Rng rng(seed);
    const SuiteResult r =
        run_suite(two_tools(0.60, 0.59), kMetrics, small_config(), rng);
    for (const PairwiseComparison& cmp : r.comparisons) {
      if (cmp.significant()) ++significant;
      ++total;
    }
  }
  EXPECT_LT(significant * 2, total)
      << "a 0.01 quality gap should not be resolvable in 12 small runs";
}

TEST(SuiteTest, ComparisonsCoverAllPairs) {
  const std::vector<ToolProfile> tools = {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.5, "t1"),
      make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "t2"),
      make_archetype_profile(ToolArchetype::kPenetrationTester, 0.5, "t3")};
  stats::Rng rng(6);
  const SuiteResult r = run_suite(tools, kMetrics, small_config(), rng);
  EXPECT_EQ(r.comparisons.size(), 3u * kMetrics.size());
}

TEST(SuiteTest, RejectsBadArguments) {
  stats::Rng rng(7);
  EXPECT_THROW(run_suite({}, kMetrics, small_config(), rng),
               std::invalid_argument);
  EXPECT_THROW(run_suite(two_tools(), {}, small_config(), rng),
               std::invalid_argument);
  const std::vector<core::MetricId> with_descriptive = {
      core::MetricId::kPrevalence};
  EXPECT_THROW(run_suite(two_tools(), with_descriptive, small_config(), rng),
               std::invalid_argument);
  EXPECT_THROW((void)run_suite(two_tools(), kMetrics, small_config(), rng)
                   .tools.at(0)
                   .metric(core::MetricId::kAccuracy),
               std::invalid_argument);
}

TEST(ScoredRunTest, CoversEverySiteDeterministically) {
  WorkloadSpec spec;
  spec.num_services = 30;
  spec.prevalence = 0.15;
  stats::Rng wrng(8);
  const Workload w = generate_workload(spec, wrng);
  const ToolProfile tool = builtin_tools().front();
  stats::Rng a(9), b(9);
  const auto sa = run_tool_scored(tool, w, a);
  const auto sb = run_tool_scored(tool, w, b);
  ASSERT_EQ(sa.size(), w.total_sites());
  std::size_t positives = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].score, sb[i].score);
    EXPECT_EQ(sa[i].positive, sb[i].positive);
    if (sa[i].positive) ++positives;
  }
  EXPECT_EQ(positives, w.total_vulns());
}

TEST(ScoredRunTest, BetterToolHasHigherRocAuc) {
  WorkloadSpec spec;
  spec.num_services = 150;
  spec.prevalence = 0.15;
  stats::Rng wrng(10);
  const Workload w = generate_workload(spec, wrng);
  const ToolProfile good =
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.9, "good");
  const ToolProfile bad =
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.2, "bad");
  stats::Rng r1(11), r2(11);
  const core::RocCurve roc_good{run_tool_scored(good, w, r1)};
  const core::RocCurve roc_bad{run_tool_scored(bad, w, r2)};
  EXPECT_GT(roc_good.auc(), roc_bad.auc());
  EXPECT_GT(roc_good.auc(), 0.7);
}

}  // namespace
}  // namespace vdbench::vdsim
