#include "vdsim/suite.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.h"
#include "stats/parallel.h"

namespace vdbench::vdsim {

void SuiteConfig::validate() const {
  workload.validate();
  if (runs < 2)
    throw std::invalid_argument("SuiteConfig: need at least 2 runs");
  if (bootstrap_replicates == 0)
    throw std::invalid_argument("SuiteConfig: bootstrap_replicates > 0");
  if (confidence <= 0.0 || confidence >= 1.0)
    throw std::invalid_argument("SuiteConfig: confidence in (0,1)");
}

const MetricEstimate& ToolEstimates::metric(core::MetricId id) const {
  const auto it = std::find_if(
      metrics.begin(), metrics.end(),
      [&](const MetricEstimate& e) { return e.metric == id; });
  if (it == metrics.end())
    throw std::invalid_argument("ToolEstimates: metric not in campaign");
  return *it;
}

SuiteResult run_suite(const std::vector<ToolProfile>& tools,
                      const std::vector<core::MetricId>& metrics,
                      const SuiteConfig& config, stats::Rng& rng) {
  config.validate();
  if (tools.empty())
    throw std::invalid_argument("run_suite: no tools");
  if (metrics.empty())
    throw std::invalid_argument("run_suite: no metrics");
  for (const core::MetricId id : metrics)
    if (core::metric_info(id).direction == core::Direction::kNone)
      throw std::invalid_argument("run_suite: descriptive metric in list");
  for (const ToolProfile& t : tools) t.validate();

  // Pre-split one child per run (serially, in index order): the parallel
  // sweep below then yields the same per-run results for every thread count.
  std::vector<stats::Rng> run_rngs;
  run_rngs.reserve(config.runs);
  for (std::size_t run = 0; run < config.runs; ++run)
    run_rngs.push_back(rng.split(run));
  stats::Rng boot_rng = rng.split(config.runs);

  // Each run benchmarks every tool on its own workload, into slot `run`.
  std::vector<std::vector<BenchmarkResult>> run_results(config.runs);
  stats::parallel_for_indexed(config.runs, [&](std::size_t run) {
    stats::Rng& run_rng = run_rngs[run];
    const Workload workload = generate_workload(config.workload, run_rng);
    run_results[run] =
        run_benchmarks(tools, workload, config.costs, run_rng);
  });

  // values[tool][metric][run], reduced in run order.
  std::vector<std::vector<std::vector<double>>> values(
      tools.size(), std::vector<std::vector<double>>(metrics.size()));
  std::vector<std::vector<std::size_t>> undefined(
      tools.size(), std::vector<std::size_t>(metrics.size(), 0));
  for (std::size_t t = 0; t < tools.size(); ++t) {
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      for (std::size_t run = 0; run < config.runs; ++run) {
        const double v = run_results[run][t].metric(metrics[m]);
        if (std::isfinite(v))
          values[t][m].push_back(v);
        else
          ++undefined[t][m];
      }
    }
  }

  SuiteResult suite;
  suite.config = config;
  suite.metrics = metrics;
  for (std::size_t t = 0; t < tools.size(); ++t) {
    ToolEstimates est;
    est.tool_name = tools[t].name;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      MetricEstimate me;
      me.metric = metrics[m];
      me.values = values[t][m];
      me.undefined_runs = undefined[t][m];
      if (!me.values.empty()) {
        me.ci = stats::bootstrap_mean_ci(me.values, boot_rng,
                                         config.bootstrap_replicates,
                                         config.confidence);
      }
      est.metrics.push_back(std::move(me));
    }
    suite.tools.push_back(std::move(est));
  }

  for (std::size_t a = 0; a < tools.size(); ++a) {
    for (std::size_t b = a + 1; b < tools.size(); ++b) {
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        const std::vector<double>& va = values[a][m];
        const std::vector<double>& vb = values[b][m];
        if (va.size() < 2 || vb.size() < 2) continue;
        PairwiseComparison cmp;
        cmp.tool_a = tools[a].name;
        cmp.tool_b = tools[b].name;
        cmp.metric = metrics[m];
        cmp.mean_a = stats::mean(va);
        cmp.mean_b = stats::mean(vb);
        cmp.welch = stats::welch_t_test(va, vb);
        cmp.probability_superiority =
            stats::probability_of_superiority(va, vb);
        suite.comparisons.push_back(std::move(cmp));
      }
    }
  }
  return suite;
}

}  // namespace vdbench::vdsim
