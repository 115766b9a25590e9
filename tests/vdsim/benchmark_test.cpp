#include "vdsim/benchmark.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vdbench::vdsim {
namespace {

BenchmarkDefinition small_definition() {
  BenchmarkDefinition def;
  def.name = "test-benchmark";
  def.primary_metric = core::MetricId::kMcc;
  def.secondary_metrics = {core::MetricId::kRecall};
  def.protocol.workload.num_services = 50;
  def.protocol.workload.prevalence = 0.12;
  def.protocol.runs = 10;
  def.protocol.bootstrap_replicates = 200;
  return def;
}

TEST(BenchmarkDefinitionTest, Validation) {
  BenchmarkDefinition def = small_definition();
  EXPECT_NO_THROW(def.validate());
  def.name.clear();
  EXPECT_THROW(def.validate(), std::invalid_argument);
  def = small_definition();
  def.primary_metric = core::MetricId::kPrevalence;
  EXPECT_THROW(def.validate(), std::invalid_argument);
  def = small_definition();
  def.secondary_metrics = {core::MetricId::kMcc};  // duplicates primary
  EXPECT_THROW(def.validate(), std::invalid_argument);
  def = small_definition();
  def.protocol.runs = 0;
  EXPECT_THROW(def.validate(), std::invalid_argument);
}

TEST(CompactLetterTest, AllDistinctGetOwnLetters) {
  const auto all_significant = [](std::size_t, std::size_t) { return true; };
  const auto groups = compact_letter_groups(3, all_significant);
  EXPECT_EQ(groups, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CompactLetterTest, AllTiedShareOneLetter) {
  const auto none_significant = [](std::size_t, std::size_t) {
    return false;
  };
  const auto groups = compact_letter_groups(4, none_significant);
  EXPECT_EQ(groups, (std::vector<std::string>{"a", "a", "a", "a"}));
}

TEST(CompactLetterTest, OverlappingBandsGetMultipleLetters) {
  // 0~1, 1~2 insignificant, but 0 vs 2 significant: middle item bridges.
  const auto adjacent_only = [](std::size_t i, std::size_t j) {
    return (j > i ? j - i : i - j) > 1;
  };
  const auto groups = compact_letter_groups(3, adjacent_only);
  EXPECT_EQ(groups[0], "a");
  EXPECT_EQ(groups[1], "ab");
  EXPECT_EQ(groups[2], "b");
}

TEST(CompactLetterTest, EmptyAndSingle) {
  const auto any = [](std::size_t, std::size_t) { return true; };
  EXPECT_TRUE(compact_letter_groups(0, any).empty());
  EXPECT_EQ(compact_letter_groups(1, any),
            (std::vector<std::string>{"a"}));
}

TEST(ExecuteBenchmarkTest, RankingSortedAndComplete) {
  stats::Rng rng(1);
  const BenchmarkReport report =
      execute_benchmark(small_definition(), builtin_tools(), rng);
  ASSERT_EQ(report.ranking.size(), builtin_tools().size());
  for (std::size_t i = 0; i < report.ranking.size(); ++i) {
    EXPECT_EQ(report.ranking[i].rank, i + 1);
    EXPECT_FALSE(report.ranking[i].group.empty());
    if (i + 1 < report.ranking.size()) {
      EXPECT_GE(report.ranking[i].mean, report.ranking[i + 1].mean);
    }
  }
}

TEST(ExecuteBenchmarkTest, ClearGapsSeparateGroups) {
  BenchmarkDefinition def = small_definition();
  const std::vector<ToolProfile> tools = {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.95, "great"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.10, "awful")};
  stats::Rng rng(2);
  const BenchmarkReport report = execute_benchmark(def, tools, rng);
  EXPECT_EQ(report.ranking.front().name, "great");
  EXPECT_NE(report.ranking.front().group, report.ranking.back().group);
}

TEST(ExecuteBenchmarkTest, NearTiesShareAGroupLetter) {
  BenchmarkDefinition def = small_definition();
  const std::vector<ToolProfile> tools = {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.600, "twin-1"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.605,
                             "twin-2")};
  // Deterministic seed chosen away from the ~5% false-positive region of
  // the alpha=0.05 test (near-ties are *expected* to alias occasionally).
  stats::Rng rng(1);
  const BenchmarkReport report = execute_benchmark(def, tools, rng);
  // Some letter must be shared between the statistically identical twins.
  bool shared = false;
  for (const char c : report.ranking[0].group)
    if (report.ranking[1].group.find(c) != std::string::npos) shared = true;
  EXPECT_TRUE(shared);
}

TEST(ExecuteBenchmarkTest, DeterministicGivenSeed) {
  stats::Rng a(4), b(4);
  const BenchmarkReport ra =
      execute_benchmark(small_definition(), builtin_tools(), a);
  const BenchmarkReport rb =
      execute_benchmark(small_definition(), builtin_tools(), b);
  for (std::size_t i = 0; i < ra.ranking.size(); ++i) {
    EXPECT_EQ(ra.ranking[i].name, rb.ranking[i].name);
    EXPECT_DOUBLE_EQ(ra.ranking[i].mean, rb.ranking[i].mean);
    EXPECT_EQ(ra.ranking[i].group, rb.ranking[i].group);
  }
}

TEST(ExecuteBenchmarkTest, RenderContainsEverything) {
  stats::Rng rng(5);
  const BenchmarkReport report =
      execute_benchmark(small_definition(), builtin_tools(), rng);
  const std::string text = report.render();
  EXPECT_NE(text.find("test-benchmark"), std::string::npos);
  EXPECT_NE(text.find("Matthews"), std::string::npos);
  for (const RankedTool& r : report.ranking)
    EXPECT_NE(text.find(r.name), std::string::npos);
  EXPECT_NE(text.find("statistically indistinguishable"), std::string::npos);
}

TEST(ExecuteBenchmarkTest, RejectsBadInput) {
  stats::Rng rng(6);
  EXPECT_THROW(execute_benchmark(small_definition(), {}, rng),
               std::invalid_argument);
  BenchmarkDefinition bad = small_definition();
  bad.name.clear();
  EXPECT_THROW(execute_benchmark(bad, builtin_tools(), rng),
               std::invalid_argument);
}

TEST(ExecuteBenchmarkTest, LowerBetterPrimaryMetricRanksCorrectly) {
  BenchmarkDefinition def = small_definition();
  def.primary_metric = core::MetricId::kNormalizedExpectedCost;
  def.secondary_metrics.clear();
  const std::vector<ToolProfile> tools = {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.2, "weak"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.9, "strong")};
  stats::Rng rng(7);
  const BenchmarkReport report = execute_benchmark(def, tools, rng);
  EXPECT_EQ(report.ranking.front().name, "strong");
  EXPECT_LT(report.ranking.front().mean, report.ranking.back().mean);
}

}  // namespace
}  // namespace vdbench::vdsim
