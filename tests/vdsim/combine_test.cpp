#include "vdsim/combine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "vdsim/presets.h"

namespace vdbench::vdsim {
namespace {

Workload test_workload(double gamma = 0.0,
                       DifficultyShape shape = DifficultyShape::kTriangular,
                       std::uint64_t seed = 1) {
  WorkloadSpec spec;
  spec.num_services = 250;
  spec.prevalence = 0.15;
  spec.difficulty_gamma = gamma;
  spec.difficulty_shape = shape;
  stats::Rng rng(seed);
  return generate_workload(spec, rng);
}

TEST(CombineReportsTest, DeduplicatesBysiteAndClassKeepingBestConfidence) {
  ToolReport a;
  a.tool_name = "a";
  a.analysis_seconds = 10.0;
  a.findings = {{0, 1, VulnClass::kXss, 0.5}, {0, 2, VulnClass::kXss, 0.9}};
  ToolReport b;
  b.tool_name = "b";
  b.analysis_seconds = 5.0;
  b.findings = {{0, 1, VulnClass::kXss, 0.8},            // dup, higher conf
                {0, 1, VulnClass::kSqlInjection, 0.4},   // same site, new class
                {1, 0, VulnClass::kWeakCrypto, 0.3}};
  const std::vector<ToolReport> both = {a, b};
  const ToolReport combined = combine_reports(both, "a+b");
  EXPECT_EQ(combined.tool_name, "a+b");
  EXPECT_DOUBLE_EQ(combined.analysis_seconds, 15.0);
  EXPECT_EQ(combined.findings.size(), 4u);
  for (const Finding& f : combined.findings) {
    if (f.service_index == 0 && f.site_index == 1 &&
        f.claimed_class == VulnClass::kXss) {
      EXPECT_DOUBLE_EQ(f.confidence, 0.8);
    }
  }
}

TEST(CombineReportsTest, RejectsEmptyInput) {
  const std::vector<ToolReport> none;
  EXPECT_THROW(combine_reports(none, "x"), std::invalid_argument);
}

TEST(CombineReportsTest, SingleReportPassesThrough) {
  ToolReport a;
  a.tool_name = "a";
  a.findings = {{0, 1, VulnClass::kXss, 0.5}};
  const std::vector<ToolReport> one = {a};
  EXPECT_EQ(combine_reports(one, "solo").findings.size(), 1u);
}

TEST(ComplementarityTest, UnionAtLeastAsGoodAsEitherTool) {
  const Workload w = test_workload();
  stats::Rng rng(2);
  const Complementarity c = analyze_complementarity(
      builtin_tools()[0], builtin_tools()[2], w, CostModel{}, rng);
  EXPECT_GE(c.union_recall, c.recall_a - 1e-12);
  EXPECT_GE(c.union_recall, c.recall_b - 1e-12);
  EXPECT_GE(c.marginal_gain(), 0.0);
  EXPECT_LE(c.union_recall, c.independent_prediction + 0.05);
}

TEST(ComplementarityTest, IndependentMissesMatchPrediction) {
  const Workload w = test_workload(0.0);
  stats::Rng rng(3);
  double total_deficit = 0.0;
  int pairs = 0;
  const auto tools = builtin_tools();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      stats::Rng pair_rng = rng.split(i * 10 + j);
      const Complementarity c = analyze_complementarity(
          tools[i], tools[j], w, CostModel{}, pair_rng);
      total_deficit += c.correlation_deficit();
      ++pairs;
    }
  }
  EXPECT_NEAR(total_deficit / pairs, 0.0, 0.02);
}

TEST(ComplementarityTest, SharedDifficultyCreatesDeficit) {
  const Workload independent = test_workload(0.0);
  const Workload correlated =
      test_workload(2.0, DifficultyShape::kBimodal, 1);
  const auto mean_deficit = [&](const Workload& w) {
    stats::Rng rng(4);
    double acc = 0.0;
    int pairs = 0;
    const auto tools = builtin_tools();
    for (std::size_t i = 0; i < tools.size(); ++i) {
      for (std::size_t j = i + 1; j < tools.size(); ++j) {
        stats::Rng pair_rng = rng.split(i * 10 + j);
        acc += analyze_complementarity(tools[i], tools[j], w, CostModel{},
                                       pair_rng)
                   .correlation_deficit();
        ++pairs;
      }
    }
    return acc / pairs;
  };
  EXPECT_GT(mean_deficit(correlated), mean_deficit(independent) + 0.02);
}

TEST(DifficultyModelTest, DifficultyWithinRangeAndShaped) {
  const Workload tri = test_workload(0.0, DifficultyShape::kTriangular, 5);
  const Workload bi = test_workload(0.0, DifficultyShape::kBimodal, 5);
  std::size_t bi_extreme = 0, bi_total = 0;
  for (const Service& svc : bi.services()) {
    for (const VulnInstance& v : svc.vulns) {
      EXPECT_GE(v.difficulty, 0.0);
      EXPECT_LE(v.difficulty, 1.0);
      ++bi_total;
      if (v.difficulty <= 0.15 || v.difficulty >= 0.85) ++bi_extreme;
    }
  }
  EXPECT_EQ(bi_extreme, bi_total) << "bimodal must avoid the middle";
  std::size_t tri_middle = 0, tri_total = 0;
  for (const Service& svc : tri.services()) {
    for (const VulnInstance& v : svc.vulns) {
      ++tri_total;
      if (v.difficulty > 0.15 && v.difficulty < 0.85) ++tri_middle;
    }
  }
  EXPECT_GT(static_cast<double>(tri_middle) / static_cast<double>(tri_total),
            0.5);
}

TEST(DifficultyModelTest, GammaReducesRecall) {
  const Workload easy = test_workload(0.0, DifficultyShape::kTriangular, 6);
  const Workload hard = test_workload(3.0, DifficultyShape::kTriangular, 6);
  const ToolProfile tool = builtin_tools().front();
  stats::Rng r1(7), r2(7);
  const double recall_easy =
      run_benchmark(tool, easy, CostModel{}, r1).context.cm.tpr();
  const double recall_hard =
      run_benchmark(tool, hard, CostModel{}, r2).context.cm.tpr();
  EXPECT_LT(recall_hard, recall_easy * 0.7);
}

TEST(DifficultyModelTest, NegativeGammaRejected) {
  WorkloadSpec spec;
  spec.difficulty_gamma = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::vdsim
