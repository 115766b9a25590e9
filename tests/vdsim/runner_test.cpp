#include "vdsim/runner.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vdbench::vdsim {
namespace {

Workload test_workload(std::uint64_t seed = 1) {
  WorkloadSpec spec;
  spec.num_services = 80;
  spec.prevalence = 0.12;
  stats::Rng rng(seed);
  return generate_workload(spec, rng);
}

TEST(EvaluateReportTest, ConfusionCountsAddUp) {
  const Workload w = test_workload();
  const ToolProfile t = builtin_tools().front();
  stats::Rng rng(2);
  const BenchmarkResult r = run_benchmark(t, w, CostModel{5.0, 1.0}, rng);
  const core::ConfusionMatrix& cm = r.context.cm;
  EXPECT_EQ(cm.tp + cm.fn, w.total_vulns());
  EXPECT_EQ(cm.total(), w.total_sites());
  EXPECT_EQ(r.matched_vulns, cm.tp);
}

TEST(EvaluateReportTest, PerfectToolPerfectConfusion) {
  const Workload w = test_workload(3);
  ToolProfile t =
      make_archetype_profile(ToolArchetype::kManualReview, 1.0, "oracle");
  t.sensitivity.fill(1.0);
  t.fallout = 0.0;
  stats::Rng rng(4);
  const BenchmarkResult r = run_benchmark(t, w, CostModel{}, rng);
  EXPECT_EQ(r.context.cm.tp, w.total_vulns());
  EXPECT_EQ(r.context.cm.fn, 0u);
  EXPECT_EQ(r.context.cm.fp, 0u);
  EXPECT_EQ(r.context.cm.tn, w.total_sites() - w.total_vulns());
  EXPECT_DOUBLE_EQ(r.metric(core::MetricId::kRecall), 1.0);
  EXPECT_DOUBLE_EQ(r.metric(core::MetricId::kPrecision), 1.0);
}

TEST(EvaluateReportTest, DuplicateFindingsCountedOnce) {
  const Workload w = test_workload(5);
  // Craft a report that reports the first vulnerability twice.
  const Service& svc = w.services().front();
  ASSERT_FALSE(svc.vulns.empty());
  const VulnInstance& v = svc.vulns.front();
  ToolReport report;
  report.tool_name = "dup";
  Finding f;
  f.service_index = 0;
  f.site_index = v.site_index;
  f.claimed_class = v.vuln_class;
  f.confidence = 0.9;
  report.findings.push_back(f);
  report.findings.push_back(f);
  const BenchmarkResult r = evaluate_report(report, w, CostModel{});
  EXPECT_EQ(r.context.cm.tp, 1u);
  EXPECT_EQ(r.duplicate_findings, 1u);
  EXPECT_EQ(r.context.cm.fp, 0u);
}

TEST(EvaluateReportTest, WrongClassIsFalsePositive) {
  const Workload w = test_workload(6);
  const Service& svc = w.services().front();
  ASSERT_FALSE(svc.vulns.empty());
  const VulnInstance& v = svc.vulns.front();
  ToolReport report;
  report.tool_name = "confused";
  Finding f;
  f.service_index = 0;
  f.site_index = v.site_index;
  f.claimed_class = v.vuln_class == VulnClass::kXss ? VulnClass::kSqlInjection
                                                    : VulnClass::kXss;
  f.confidence = 0.5;
  report.findings.push_back(f);
  const BenchmarkResult r = evaluate_report(report, w, CostModel{});
  EXPECT_EQ(r.context.cm.tp, 0u);
  EXPECT_EQ(r.context.cm.fp, 1u);
  EXPECT_EQ(r.misclassified_findings, 1u);
}

// Two hand-built services whose ids are sparse and out of order: service 0
// seeds id 900 (SQLi at site 2); service 1 seeds id 7 (XSS at site 4) and
// id 35 (path traversal at site 8). 20 sites, 3 of them vulnerable.
Workload sparse_id_workload() {
  const auto vuln = [](std::uint64_t id, std::size_t service,
                       std::size_t site, VulnClass c) {
    VulnInstance v;
    v.id = id;
    v.service_index = service;
    v.site_index = site;
    v.vuln_class = c;
    return v;
  };
  Service first{"first", 1.0, 10, {}};
  first.vulns.push_back(vuln(900, 0, 2, VulnClass::kSqlInjection));
  Service second{"second", 1.0, 10, {}};
  second.vulns.push_back(vuln(7, 1, 4, VulnClass::kXss));
  second.vulns.push_back(vuln(35, 1, 8, VulnClass::kPathTraversal));
  WorkloadSpec spec;
  spec.num_services = 2;
  return Workload(spec, {first, second});
}

TEST(EvaluateReportTest, MatchesEachInstanceOnceAcrossServicesWithSparseIds) {
  const Workload w = sparse_id_workload();
  const auto finding = [](std::size_t service, std::size_t site,
                          VulnClass c) {
    Finding f;
    f.service_index = service;
    f.site_index = site;
    f.claimed_class = c;
    f.confidence = 0.5;
    return f;
  };
  ToolReport report;
  report.tool_name = "sparse";
  report.findings = {
      finding(1, 4, VulnClass::kXss),           // TP on id 7
      finding(1, 4, VulnClass::kXss),           // its duplicate
      finding(0, 2, VulnClass::kXss),           // right site, wrong class
      finding(1, 2, VulnClass::kSqlInjection),  // clean; id 900's in svc 0
  };
  const BenchmarkResult r = evaluate_report(report, w, CostModel{});
  const core::ConfusionMatrix& cm = r.context.cm;
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.fp, 2u);
  EXPECT_EQ(cm.fn, 2u);
  EXPECT_EQ(cm.tn, 15u);  // 17 clean sites, 2 false alarms
  EXPECT_EQ(r.matched_vulns, 1u);
  EXPECT_EQ(r.duplicate_findings, 1u);
  EXPECT_EQ(r.misclassified_findings, 1u);
  const auto cls = [&](VulnClass c) -> const ClassOutcome& {
    return r.by_class[vuln_class_index(c)];
  };
  EXPECT_EQ(cls(VulnClass::kXss).tp, 1u);
  EXPECT_EQ(cls(VulnClass::kXss).fn, 0u);
  EXPECT_EQ(cls(VulnClass::kSqlInjection).tp, 0u);
  EXPECT_EQ(cls(VulnClass::kSqlInjection).fn, 1u);
  EXPECT_EQ(cls(VulnClass::kPathTraversal).tp, 0u);
  EXPECT_EQ(cls(VulnClass::kPathTraversal).fn, 1u);
  EXPECT_EQ(cls(VulnClass::kXss).claimed_fp, 1u);
  EXPECT_EQ(cls(VulnClass::kSqlInjection).claimed_fp, 1u);
}

TEST(EvaluateReportTest, CostModelPropagated) {
  const Workload w = test_workload(7);
  const ToolProfile t = builtin_tools()[1];
  stats::Rng rng(8);
  const BenchmarkResult r = run_benchmark(t, w, CostModel{50.0, 2.0}, rng);
  EXPECT_DOUBLE_EQ(r.context.cost_fn, 50.0);
  EXPECT_DOUBLE_EQ(r.context.cost_fp, 2.0);
  EXPECT_DOUBLE_EQ(r.context.kloc, w.total_kloc());
  EXPECT_GT(r.context.analysis_seconds, 0.0);
}

TEST(EvaluateReportTest, AucSeparatesGoodConfidenceModels) {
  const Workload w = test_workload(9);
  ToolProfile sharp =
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.6, "sharp");
  sharp.confidence_tp_mean = 0.95;
  sharp.confidence_fp_mean = 0.05;
  sharp.confidence_sd = 0.02;
  ToolProfile blurry = sharp;
  blurry.name = "blurry";
  blurry.confidence_tp_mean = 0.55;
  blurry.confidence_fp_mean = 0.45;
  blurry.confidence_sd = 0.2;
  stats::Rng r1(10), r2(10);
  const double auc_sharp =
      run_benchmark(sharp, w, CostModel{}, r1).context.auc;
  const double auc_blurry =
      run_benchmark(blurry, w, CostModel{}, r2).context.auc;
  EXPECT_GT(auc_sharp, 0.99);
  EXPECT_LT(auc_blurry, auc_sharp);
  EXPECT_GT(auc_blurry, 0.5);
}

TEST(EvaluateReportTest, AucUndefinedWithoutBothKinds) {
  const Workload w = test_workload(11);
  ToolProfile silent =
      make_archetype_profile(ToolArchetype::kFuzzer, 0.5, "silent");
  silent.sensitivity.fill(0.0);
  silent.fallout = 0.0;
  stats::Rng rng(12);
  const BenchmarkResult r = run_benchmark(silent, w, CostModel{}, rng);
  EXPECT_TRUE(std::isnan(r.context.auc));
}

TEST(RunBenchmarksTest, OneResultPerToolDeterministic) {
  const Workload w = test_workload(13);
  const std::vector<ToolProfile> tools = builtin_tools();
  stats::Rng a(14), b(14);
  const auto ra = run_benchmarks(tools, w, CostModel{}, a);
  const auto rb = run_benchmarks(tools, w, CostModel{}, b);
  ASSERT_EQ(ra.size(), tools.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tool_name, tools[i].name);
    EXPECT_EQ(ra[i].context.cm, rb[i].context.cm);
  }
}

TEST(RunBenchmarksTest, BetterToolScoresBetterOnBigWorkload) {
  WorkloadSpec spec;
  spec.num_services = 300;
  spec.prevalence = 0.12;
  stats::Rng wrng(15);
  const Workload w = generate_workload(spec, wrng);
  const std::vector<ToolProfile> tools = {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.9, "good"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.3, "bad"),
  };
  stats::Rng rng(16);
  const auto results = run_benchmarks(tools, w, CostModel{}, rng);
  EXPECT_GT(results[0].metric(core::MetricId::kMcc),
            results[1].metric(core::MetricId::kMcc));
  EXPECT_GT(results[0].metric(core::MetricId::kFMeasure),
            results[1].metric(core::MetricId::kFMeasure));
}

}  // namespace
}  // namespace vdbench::vdsim
