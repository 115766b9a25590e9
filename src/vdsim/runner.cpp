#include "vdsim/runner.h"

#include <cmath>

#include "stats/hypothesis.h"

namespace vdbench::vdsim {

namespace {

// Empirical AUC of the tool's alarm discrimination: probability that a
// matched (true) finding carries a higher confidence than a false one.
double empirical_auc(const std::vector<double>& tp_conf,
                     const std::vector<double>& fp_conf) {
  if (tp_conf.empty() || fp_conf.empty())
    return std::numeric_limits<double>::quiet_NaN();
  return stats::probability_of_superiority(tp_conf, fp_conf);
}

}  // namespace

double ClassOutcome::recall() const noexcept {
  const std::uint64_t total = tp + fn;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(tp) / static_cast<double>(total);
}

double BenchmarkResult::macro_class_recall() const noexcept {
  double acc = 0.0;
  std::size_t present = 0;
  for (const ClassOutcome& c : by_class) {
    const double r = c.recall();
    if (std::isnan(r)) continue;
    acc += r;
    ++present;
  }
  if (present == 0) return std::numeric_limits<double>::quiet_NaN();
  return acc / static_cast<double>(present);
}

VulnClass BenchmarkResult::weakest_class() const {
  const ClassOutcome* weakest = nullptr;
  for (const ClassOutcome& c : by_class) {
    if (std::isnan(c.recall())) continue;
    if (weakest == nullptr || c.recall() < weakest->recall()) weakest = &c;
  }
  if (weakest == nullptr)
    throw std::logic_error("weakest_class: workload seeded no vulnerabilities");
  return weakest->vuln_class;
}

BenchmarkResult evaluate_report(const ToolReport& report,
                                const Workload& workload,
                                const CostModel& costs) {
  BenchmarkResult result;
  result.tool_name = report.tool_name;
  for (const VulnClass c : all_vuln_classes())
    result.by_class[vuln_class_index(c)].vuln_class = c;

  // One matched flag per seeded instance, at its position in the workload:
  // its service's offset plus its index in Service::vulns. Ids are not keys:
  // a hand-built workload may number them sparsely.
  const std::vector<Service>& services = workload.services();
  std::vector<std::size_t> offsets(services.size() + 1, 0);
  for (std::size_t s = 0; s < services.size(); ++s)
    offsets[s + 1] = offsets[s] + services[s].vulns.size();
  std::vector<char> matched(offsets.back(), 0);
  std::uint64_t tp = 0;
  std::vector<double> tp_confidences;
  std::vector<double> fp_confidences;
  std::uint64_t fp = 0;

  for (const Finding& f : report.findings) {
    const VulnInstance* vuln = workload.vuln_at(f.service_index, f.site_index);
    if (vuln != nullptr && vuln->vuln_class == f.claimed_class) {
      char& flag = matched[offsets[f.service_index] +
                           static_cast<std::size_t>(
                               vuln - services[f.service_index].vulns.data())];
      if (flag == 0) {
        flag = 1;
        ++tp;
        tp_confidences.push_back(f.confidence);
        ++result.by_class[vuln_class_index(vuln->vuln_class)].tp;
      } else {
        ++result.duplicate_findings;
      }
    } else {
      if (vuln != nullptr) ++result.misclassified_findings;
      ++fp;
      fp_confidences.push_back(f.confidence);
      ++result.by_class[vuln_class_index(f.claimed_class)].claimed_fp;
    }
  }

  // Per-class misses: seeded instances never matched.
  std::size_t position = 0;
  for (const Service& svc : services) {
    for (const VulnInstance& v : svc.vulns) {
      if (matched[position++] == 0)
        ++result.by_class[vuln_class_index(v.vuln_class)].fn;
    }
  }

  core::ConfusionMatrix cm;
  cm.tp = tp;
  cm.fp = fp;
  cm.fn = workload.total_vulns() - cm.tp;
  // TN frame: clean sites that attracted no (false) finding. False
  // findings land on distinct sites by construction of run_tool, but a
  // report from elsewhere could double up; counting distinct sites would
  // require a set — the runner counts alarms, which matches how triage
  // effort scales and keeps TP+FP+TN+FN == sites + duplicates excluded.
  const std::uint64_t clean_sites =
      workload.total_sites() - workload.total_vulns();
  cm.tn = clean_sites >= fp ? clean_sites - fp : 0;

  result.matched_vulns = tp;
  result.context.cm = cm;
  result.context.cost_fn = costs.cost_fn;
  result.context.cost_fp = costs.cost_fp;
  result.context.analysis_seconds = report.analysis_seconds;
  result.context.kloc = workload.total_kloc();
  result.context.auc = empirical_auc(tp_confidences, fp_confidences);
  return result;
}

BenchmarkResult run_benchmark(const ToolProfile& tool,
                              const Workload& workload,
                              const CostModel& costs, stats::Rng& rng) {
  const ToolReport report = run_tool(tool, workload, rng);
  return evaluate_report(report, workload, costs);
}

std::vector<BenchmarkResult> run_benchmarks(
    const std::vector<ToolProfile>& tools, const Workload& workload,
    const CostModel& costs, stats::Rng& rng) {
  std::vector<BenchmarkResult> results;
  results.reserve(tools.size());
  for (std::size_t t = 0; t < tools.size(); ++t) {
    stats::Rng child = rng.split(t + 500);
    results.push_back(run_benchmark(tools[t], workload, costs, child));
  }
  return results;
}

}  // namespace vdbench::vdsim
