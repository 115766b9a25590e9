#include "vdsim/tool.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

namespace vdbench::vdsim {
namespace {

Workload test_workload(std::uint64_t seed = 1, double prevalence = 0.15) {
  WorkloadSpec spec;
  spec.num_services = 60;
  spec.prevalence = prevalence;
  stats::Rng rng(seed);
  return generate_workload(spec, rng);
}

TEST(ToolProfileTest, ValidationCatchesBadFields) {
  ToolProfile t = make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "f");
  EXPECT_NO_THROW(t.validate());
  t.fallout = 1.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "f");
  t.sensitivity[0] = -0.1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "f");
  t.speed_kloc_per_second = 0.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "f");
  t.name.clear();
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(ToolProfileTest, ValidationRejectsNanInEveryNumericField) {
  // NaN fails every ordering, so `< lo || > hi` style checks silently let
  // it through; validate() must use negated-range comparisons instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto fresh = [] {
    return make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "f");
  };
  ToolProfile t = fresh();
  t.sensitivity[3] = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = fresh();
  t.fallout = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = fresh();
  t.confidence_tp_mean = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = fresh();
  t.confidence_fp_mean = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = fresh();
  t.confidence_sd = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = fresh();
  t.speed_kloc_per_second = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = fresh();
  t.startup_seconds = nan;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(ToolProfileTest, ValidationBoundsConfidenceMeans) {
  ToolProfile t = make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "f");
  t.confidence_tp_mean = 1.2;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "f");
  t.confidence_fp_mean = -0.1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(ArchetypeTest, QualityImprovesEverything) {
  const ToolProfile weak =
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.2, "weak");
  const ToolProfile strong =
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.9, "strong");
  for (std::size_t c = 0; c < kVulnClassCount; ++c)
    EXPECT_GE(strong.sensitivity[c], weak.sensitivity[c]);
  EXPECT_LT(strong.fallout, weak.fallout);
  EXPECT_GT(strong.confidence_tp_mean - strong.confidence_fp_mean,
            weak.confidence_tp_mean - weak.confidence_fp_mean);
}

TEST(ArchetypeTest, ProfilesReflectFamilyStrengths) {
  const ToolProfile pentest =
      make_archetype_profile(ToolArchetype::kPenetrationTester, 0.7, "pt");
  const ToolProfile fuzzer =
      make_archetype_profile(ToolArchetype::kFuzzer, 0.7, "fz");
  // Pen testers beat fuzzers on SQL injection, fuzzers win on overflows.
  EXPECT_GT(pentest.sensitivity[vuln_class_index(VulnClass::kSqlInjection)],
            fuzzer.sensitivity[vuln_class_index(VulnClass::kSqlInjection)]);
  EXPECT_GT(fuzzer.sensitivity[vuln_class_index(VulnClass::kBufferOverflow)],
            pentest.sensitivity[vuln_class_index(VulnClass::kBufferOverflow)]);
}

TEST(ArchetypeTest, RejectsBadQuality) {
  EXPECT_THROW(make_archetype_profile(ToolArchetype::kFuzzer, -0.1, "x"),
               std::invalid_argument);
  EXPECT_THROW(make_archetype_profile(ToolArchetype::kFuzzer, 1.1, "x"),
               std::invalid_argument);
}

TEST(BuiltinToolsTest, SixDistinctValidTools) {
  const std::vector<ToolProfile> tools = builtin_tools();
  EXPECT_EQ(tools.size(), 6u);
  std::set<std::string> names;
  for (const ToolProfile& t : tools) {
    EXPECT_NO_THROW(t.validate());
    EXPECT_TRUE(names.insert(t.name).second);
  }
}

TEST(RunToolTest, DeterministicGivenSeed) {
  const Workload w = test_workload();
  const ToolProfile t = builtin_tools().front();
  stats::Rng a(5), b(5);
  const ToolReport ra = run_tool(t, w, a);
  const ToolReport rb = run_tool(t, w, b);
  ASSERT_EQ(ra.findings.size(), rb.findings.size());
  for (std::size_t i = 0; i < ra.findings.size(); ++i) {
    EXPECT_EQ(ra.findings[i].service_index, rb.findings[i].service_index);
    EXPECT_EQ(ra.findings[i].site_index, rb.findings[i].site_index);
    EXPECT_DOUBLE_EQ(ra.findings[i].confidence, rb.findings[i].confidence);
  }
}

TEST(RunToolTest, PerfectToolFindsEverythingCleanly) {
  const Workload w = test_workload();
  ToolProfile t = make_archetype_profile(ToolArchetype::kManualReview, 1.0,
                                         "oracle");
  t.sensitivity.fill(1.0);
  t.fallout = 0.0;
  stats::Rng rng(6);
  const ToolReport report = run_tool(t, w, rng);
  EXPECT_EQ(report.findings.size(), w.total_vulns());
  for (const Finding& f : report.findings) {
    const VulnInstance* v = w.vuln_at(f.service_index, f.site_index);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->vuln_class, f.claimed_class);
  }
}

TEST(RunToolTest, BlindToolFindsNothing) {
  const Workload w = test_workload();
  ToolProfile t = make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "blind");
  t.sensitivity.fill(0.0);
  t.fallout = 0.0;
  stats::Rng rng(7);
  EXPECT_TRUE(run_tool(t, w, rng).findings.empty());
}

TEST(RunToolTest, FalseAlarmsLandOnCleanDistinctSites) {
  const Workload w = test_workload(8, 0.2);
  ToolProfile t = make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.5,
                                         "noisy");
  t.sensitivity.fill(0.0);  // only false alarms
  t.fallout = 0.3;
  stats::Rng rng(9);
  const ToolReport report = run_tool(t, w, rng);
  EXPECT_FALSE(report.findings.empty());
  std::set<std::pair<std::size_t, std::size_t>> sites;
  for (const Finding& f : report.findings) {
    EXPECT_TRUE(sites.insert({f.service_index, f.site_index}).second)
        << "false alarms must hit distinct sites";
    const Service& svc = w.services()[f.service_index];
    EXPECT_LT(f.site_index, svc.candidate_sites);
    EXPECT_EQ(w.vuln_at(f.service_index, f.site_index), nullptr)
        << "false alarm must land on a clean site";
  }
}

TEST(RunToolTest, ConfidencesInUnitInterval) {
  const Workload w = test_workload();
  const ToolProfile t = builtin_tools()[2];
  stats::Rng rng(10);
  for (const Finding& f : run_tool(t, w, rng).findings) {
    EXPECT_GE(f.confidence, 0.0);
    EXPECT_LE(f.confidence, 1.0);
  }
}

TEST(RunToolTest, TimingModel) {
  const Workload w = test_workload();
  ToolProfile t = builtin_tools().front();
  t.startup_seconds = 10.0;
  t.speed_kloc_per_second = 2.0;
  stats::Rng rng(11);
  const ToolReport report = run_tool(t, w, rng);
  EXPECT_DOUBLE_EQ(report.analysis_seconds, 10.0 + w.total_kloc() / 2.0);
}

TEST(SampleToolTest, WithinQualityRangeAndValid) {
  stats::Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    const ToolProfile t = sample_tool(0.3, 0.8, rng);
    EXPECT_NO_THROW(t.validate());
  }
  EXPECT_THROW(sample_tool(0.8, 0.3, rng), std::invalid_argument);
}

TEST(ArchetypeNameTest, AllNamed) {
  for (const ToolArchetype a :
       {ToolArchetype::kStaticAnalyzer, ToolArchetype::kPenetrationTester,
        ToolArchetype::kFuzzer, ToolArchetype::kManualReview})
    EXPECT_FALSE(archetype_name(a).empty());
}

}  // namespace
}  // namespace vdbench::vdsim
