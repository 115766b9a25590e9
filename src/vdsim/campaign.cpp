#include "vdsim/campaign.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/parallel.h"
#include "stats/rank.h"

namespace vdbench::vdsim {

std::vector<std::size_t> rank_tools_by_metric(
    const std::vector<BenchmarkResult>& results, core::MetricId metric) {
  if (core::metric_info(metric).direction == core::Direction::kNone)
    throw std::invalid_argument(
        "rank_tools_by_metric: metric induces no ordering");
  std::vector<double> utilities(results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    utilities[i] = core::metric_utility(metric, results[i].metric(metric));
  std::vector<std::size_t> order(results.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const bool da = std::isfinite(utilities[a]);
                     const bool db = std::isfinite(utilities[b]);
                     if (da != db) return da;  // defined before undefined
                     if (!da) return false;
                     return utilities[a] > utilities[b];
                   });
  return order;
}

AgreementMatrix metric_agreement(const std::vector<core::MetricId>& metrics,
                                 const WorkloadSpec& spec,
                                 std::size_t populations,
                                 std::size_t tools_per_population,
                                 const CostModel& costs, stats::Rng& rng) {
  if (metrics.size() < 2)
    throw std::invalid_argument("metric_agreement: need >= 2 metrics");
  if (populations == 0 || tools_per_population < 3)
    throw std::invalid_argument(
        "metric_agreement: need populations > 0 and >= 3 tools each");
  for (const core::MetricId id : metrics)
    if (core::metric_info(id).direction == core::Direction::kNone)
      throw std::invalid_argument(
          "metric_agreement: descriptive metric in list");

  AgreementMatrix out{metrics,
                      stats::Matrix(metrics.size(), metrics.size(), 0.0),
                      stats::Matrix(metrics.size(), metrics.size(), 0.0)};

  // Pre-split one child per population (serially, in index order) so the
  // parallel sweep below is bit-identical for every thread count.
  std::vector<stats::Rng> pop_rngs;
  pop_rngs.reserve(populations);
  for (std::size_t p = 0; p < populations; ++p)
    pop_rngs.push_back(rng.split(p));

  // Per-population upper-triangular contributions, reduced in index order
  // afterwards so floating-point accumulation order is fixed.
  struct PopulationTaus {
    stats::Matrix tau;
    stats::Matrix valid;
  };
  std::vector<PopulationTaus> contributions(
      populations, PopulationTaus{
                       stats::Matrix(metrics.size(), metrics.size(), 0.0),
                       stats::Matrix(metrics.size(), metrics.size(), 0.0)});

  stats::parallel_for_indexed(populations, [&](std::size_t p) {
    stats::Rng& pop_rng = pop_rngs[p];
    Workload workload = generate_workload(spec, pop_rng);
    std::vector<ToolProfile> tools;
    tools.reserve(tools_per_population);
    for (std::size_t t = 0; t < tools_per_population; ++t)
      tools.push_back(sample_tool(0.2, 0.95, pop_rng));
    const std::vector<BenchmarkResult> results =
        run_benchmarks(tools, workload, costs, pop_rng);

    // Utility vector per metric; mark undefined populations per metric.
    std::vector<std::vector<double>> utilities(metrics.size());
    std::vector<bool> defined(metrics.size(), true);
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      utilities[m].reserve(results.size());
      for (std::size_t t = 0; t < results.size(); ++t) {
        const double u =
            core::metric_utility(metrics[m], results[t].metric(metrics[m]));
        if (!std::isfinite(u)) defined[m] = false;
        utilities[m].push_back(u);
      }
    }
    PopulationTaus& contribution = contributions[p];
    for (std::size_t a = 0; a < metrics.size(); ++a) {
      for (std::size_t b = a; b < metrics.size(); ++b) {
        if (!defined[a] || !defined[b]) continue;
        double tau = 1.0;
        if (a != b) {
          try {
            tau = stats::kendall_tau(utilities[a], utilities[b]);
          } catch (const std::invalid_argument&) {
            continue;  // entirely tied vector: no information
          }
        }
        contribution.tau(a, b) = tau;
        contribution.valid(a, b) = 1.0;
      }
    }
  });

  for (std::size_t p = 0; p < populations; ++p) {
    const PopulationTaus& contribution = contributions[p];
    for (std::size_t a = 0; a < metrics.size(); ++a) {
      for (std::size_t b = a; b < metrics.size(); ++b) {
        if (contribution.valid(a, b) == 0.0) continue;
        out.tau(a, b) += contribution.tau(a, b);
        out.tau(b, a) = out.tau(a, b);
        out.valid_populations(a, b) += 1.0;
        out.valid_populations(b, a) = out.valid_populations(a, b);
      }
    }
  }
  for (std::size_t a = 0; a < metrics.size(); ++a) {
    for (std::size_t b = 0; b < metrics.size(); ++b) {
      const double n = out.valid_populations(a, b);
      out.tau(a, b) = n == 0.0 ? std::numeric_limits<double>::quiet_NaN()
                               : out.tau(a, b) / n;
    }
  }
  return out;
}

std::vector<PrevalencePoint> prevalence_sweep(
    const ToolProfile& tool, WorkloadSpec spec,
    const std::vector<double>& prevalence_grid,
    const std::vector<core::MetricId>& metrics, const CostModel& costs,
    stats::Rng& rng) {
  if (prevalence_grid.empty())
    throw std::invalid_argument("prevalence_sweep: empty grid");
  std::vector<PrevalencePoint> out;
  out.reserve(prevalence_grid.size());
  for (std::size_t i = 0; i < prevalence_grid.size(); ++i) {
    spec.prevalence = prevalence_grid[i];
    stats::Rng point_rng = rng.split(i);
    const Workload workload = generate_workload(spec, point_rng);
    const BenchmarkResult result =
        run_benchmark(tool, workload, costs, point_rng);
    PrevalencePoint point;
    point.prevalence = prevalence_grid[i];
    point.metric_values.reserve(metrics.size());
    for (const core::MetricId id : metrics)
      point.metric_values.push_back(result.metric(id));
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace vdbench::vdsim
