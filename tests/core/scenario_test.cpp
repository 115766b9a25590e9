#include "core/scenario.h"

#include <gtest/gtest.h>

#include <set>

namespace vdbench::core {
namespace {

TEST(ScenarioTest, FiveBuiltinsWithUniqueKeys) {
  const auto scenarios = builtin_scenarios();
  EXPECT_EQ(scenarios.size(), 5u);
  std::set<std::string> keys;
  for (const Scenario& s : scenarios) {
    EXPECT_TRUE(keys.insert(s.key).second) << "duplicate " << s.key;
    EXPECT_NO_THROW(s.validate());
  }
}

TEST(ScenarioTest, LookupByKey) {
  EXPECT_EQ(builtin_scenario("s1_critical").name,
            "Security-critical deployment");
  EXPECT_THROW((void)builtin_scenario("nope"), std::invalid_argument);
}

TEST(ScenarioTest, CostStructureMatchesIntent) {
  // S1 punishes misses, S2 punishes false alarms, S3 is balanced.
  const Scenario& s1 = builtin_scenario("s1_critical");
  const Scenario& s2 = builtin_scenario("s2_budget");
  const Scenario& s3 = builtin_scenario("s3_balanced");
  EXPECT_GT(s1.cost_fn / s1.cost_fp, 10.0);
  EXPECT_LT(s2.cost_fn / s2.cost_fp, 0.5);
  EXPECT_DOUBLE_EQ(s3.cost_fn, s3.cost_fp);
}

TEST(ScenarioTest, RareScenarioIsExtremelyImbalanced) {
  EXPECT_LT(builtin_scenario("s4_rare").prevalence, 0.01);
}

TEST(ScenarioTest, SampleToolWithinRanges) {
  const Scenario& s = builtin_scenario("s3_balanced");
  stats::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const DetectorProfile d = s.sample_tool(rng);
    EXPECT_GE(d.sensitivity, s.sens_lo);
    EXPECT_LE(d.sensitivity, s.sens_hi);
    EXPECT_GE(d.fallout, s.fallout_lo);
    EXPECT_LE(d.fallout, s.fallout_hi);
  }
}

TEST(ScenarioTest, TrueCostMatchesExpectedCost) {
  const Scenario& s = builtin_scenario("s5_regression");
  const DetectorProfile d{0.7, 0.08};
  EXPECT_DOUBLE_EQ(s.true_cost(d),
                   expected_cost(d, s.prevalence, s.cost_fn, s.cost_fp));
}

TEST(ScenarioTest, DominatingToolAlwaysCostsLessInEveryScenario) {
  const DetectorProfile better{0.9, 0.02};
  const DetectorProfile worse{0.6, 0.20};
  for (const Scenario& s : builtin_scenarios())
    EXPECT_LT(s.true_cost(better), s.true_cost(worse)) << s.key;
}

TEST(ScenarioTest, MissHeavyScenarioPrefersSensitiveTool) {
  // High-sensitivity/noisy vs low-sensitivity/quiet: S1 must prefer the
  // sensitive tool, S2 the quiet one — the core of the paper's argument
  // that the adequate metric depends on the scenario.
  const DetectorProfile sensitive{0.95, 0.15};
  const DetectorProfile quiet{0.60, 0.02};
  const Scenario& s1 = builtin_scenario("s1_critical");
  const Scenario& s2 = builtin_scenario("s2_budget");
  EXPECT_LT(s1.true_cost(sensitive), s1.true_cost(quiet));
  EXPECT_GT(s2.true_cost(sensitive), s2.true_cost(quiet));
}

TEST(ScenarioTest, ValidationCatchesBadFields) {
  Scenario s = builtin_scenario("s3_balanced");
  s.prevalence = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = builtin_scenario("s3_balanced");
  s.cost_fn = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = builtin_scenario("s3_balanced");
  s.sens_lo = 0.9;
  s.sens_hi = 0.5;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = builtin_scenario("s3_balanced");
  s.property_weights.fill(0.0);
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = builtin_scenario("s3_balanced");
  s.key.clear();
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioTest, PropertyWeightsRoughlyNormalized) {
  for (const Scenario& s : builtin_scenarios()) {
    double sum = 0.0;
    for (const double w : s.property_weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-9) << s.key;
  }
}

}  // namespace
}  // namespace vdbench::core
