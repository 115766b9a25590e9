#include "core/study.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "fault/injector.h"
#include "stats/parallel.h"

namespace vdbench::core {
namespace {

StudyConfig fast_study_config() {
  StudyConfig cfg;
  cfg.assessment.trials = 60;
  cfg.assessment.asymptotic_items = 50'000;
  cfg.analyzer.pair_trials = 250;
  cfg.seed = 99;
  return cfg;
}

class StudyFixture : public ::testing::Test {
 protected:
  static Study& study() {
    static Study s(fast_study_config());
    return s;
  }
};

TEST_F(StudyFixture, CoversBuiltinScenariosByDefault) {
  EXPECT_EQ(study().scenarios().size(), builtin_scenarios().size());
}

TEST_F(StudyFixture, AccessorsReturnConsistentShapes) {
  EXPECT_EQ(study().assessments().size(), kMetricCount);
  for (const Scenario& s : study().scenarios()) {
    EXPECT_EQ(study().effectiveness(s.key).size(),
              ranking_metrics().size());
    EXPECT_EQ(study().recommendation(s.key).ranked.size(),
              ranking_metrics().size());
    EXPECT_EQ(study().validation(s.key).metrics.size(),
              ranking_metrics().size());
  }
}

TEST_F(StudyFixture, UnknownScenarioKeyThrows) {
  EXPECT_THROW((void)study().recommendation("nope"), std::invalid_argument);
  EXPECT_THROW((void)study().effectiveness("nope"), std::invalid_argument);
  EXPECT_THROW((void)study().validation("nope"), std::invalid_argument);
}

TEST(StudyTest, DeterministicGivenSeed) {
  Study a(fast_study_config());
  Study b(fast_study_config());
  for (const Scenario& s : a.scenarios()) {
    EXPECT_EQ(a.recommendation(s.key).best().metric,
              b.recommendation(s.key).best().metric);
    EXPECT_DOUBLE_EQ(a.validation(s.key).kendall_agreement,
                     b.validation(s.key).kendall_agreement);
  }
}

TEST(StudyTest, DifferentSeedsMayDifferButStayWellFormed) {
  StudyConfig cfg = fast_study_config();
  cfg.seed = 100;
  Study s(cfg);
  for (const Scenario& sc : s.scenarios()) {
    for (const MetricRecommendation& r : s.recommendation(sc.key).ranked) {
      EXPECT_GE(r.overall, 0.0);
      EXPECT_LE(r.overall, 1.0);
    }
  }
}

TEST(StudyTest, CustomScenarioListIsHonored) {
  StudyConfig cfg = fast_study_config();
  cfg.scenarios = {builtin_scenario("s3_balanced")};
  Study s(cfg);
  EXPECT_EQ(s.scenarios().size(), 1u);
  EXPECT_NO_THROW((void)s.recommendation("s3_balanced"));
  EXPECT_THROW((void)s.recommendation("s1_critical"), std::invalid_argument);
}

TEST(StudyTest, InvalidSubConfigRejectedAtConstruction) {
  StudyConfig cfg = fast_study_config();
  cfg.assessment.trials = 0;
  EXPECT_THROW(Study{cfg}, std::invalid_argument);
  cfg = fast_study_config();
  cfg.analyzer.pair_trials = 0;
  EXPECT_THROW(Study{cfg}, std::invalid_argument);
}

// --- memo rules -------------------------------------------------------------

// The memo must hand back exactly what a fresh study computes: compare bit
// patterns, not values within a tolerance.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bit_identical(const std::vector<MetricAssessment>& a,
                          const std::vector<MetricAssessment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric, b[i].metric);
    for (std::size_t p = 0; p < kPropertyCount; ++p)
      EXPECT_EQ(bits(a[i].scores[p]), bits(b[i].scores[p]))
          << metric_info(a[i].metric).key << " property " << p;
  }
}

void expect_bit_identical(const std::vector<EffectivenessResult>& a,
                          const std::vector<EffectivenessResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto key = metric_info(a[i].metric).key;
    EXPECT_EQ(a[i].metric, b[i].metric);
    EXPECT_EQ(bits(a[i].ranking_fidelity), bits(b[i].ranking_fidelity)) << key;
    EXPECT_EQ(bits(a[i].undefined_rate), bits(b[i].undefined_rate)) << key;
    EXPECT_EQ(bits(a[i].tie_rate), bits(b[i].tie_rate)) << key;
    EXPECT_EQ(bits(a[i].fidelity_se), bits(b[i].fidelity_se)) << key;
    EXPECT_EQ(bits(a[i].fidelity_lower), bits(b[i].fidelity_lower)) << key;
    EXPECT_EQ(bits(a[i].fidelity_upper), bits(b[i].fidelity_upper)) << key;
    EXPECT_EQ(a[i].trials, b[i].trials) << key;
  }
}

class StudyMemoTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::global().disarm(); }
};

TEST_F(StudyMemoTest, StageOneThatThrowsAnInjectedFaultStoresNothing) {
  Study study(fast_study_config());
  fault::Injector::global().arm("executor.task=throw@3:1");
  EXPECT_THROW((void)study.assessments(), fault::InjectedFault);
  fault::Injector::global().disarm();
  Study fresh(fast_study_config());
  expect_bit_identical(study.assessments(), fresh.assessments());
}

TEST_F(StudyMemoTest, CancelledStageOneStoresNothing) {
  Study study(fast_study_config());
  {
    stats::CancellationToken token;
    token.request_cancel();
    const stats::ScopedCancellationToken install(&token);
    EXPECT_THROW((void)study.assessments(), stats::Cancelled);
  }
  Study fresh(fast_study_config());
  expect_bit_identical(study.assessments(), fresh.assessments());
}

TEST_F(StudyMemoTest, ScenarioStreamDoesNotDependOnTheScenarioList) {
  StudyConfig alone_cfg = fast_study_config();
  alone_cfg.scenarios = {builtin_scenario("s3_balanced")};
  Study alone(alone_cfg);
  // Every scenario, in list order, before s3 is read: a stream tied to a
  // shared split counter would move with the position and the order.
  Study all(fast_study_config());
  for (const Scenario& s : all.scenarios()) (void)all.effectiveness(s.key);
  expect_bit_identical(alone.effectiveness("s3_balanced"),
                       all.effectiveness("s3_balanced"));
}

}  // namespace
}  // namespace vdbench::core
