// E4 — discriminative-power figure: probability that a single benchmark
// run, scored with a given metric, ranks the genuinely better of two tools
// first, as a function of the quality gap between them. Run at moderate
// (10%) and extreme (1%) prevalence to show how imbalance destroys the
// discrimination of non-robust metrics.
//
// Each (gap, metric) cell seeds its own Rng chain from (seed, gap, metric,
// prevalence), so a prevalence's cells run on the parallel engine, each
// into its own slot, and the table is bit-identical for any
// VDBENCH_THREADS value.
#include <cmath>
#include <vector>

#include "core/sampling.h"
#include "experiments.h"
#include "report/chart.h"
#include "report/table.h"
#include "stats/parallel.h"
#include "study_common.h"

namespace vdbench::bench {

namespace {

constexpr std::size_t kTrials = 1200;
constexpr std::uint64_t kItems = 500;

double discrimination_at(core::MetricId id, double gap, double prevalence,
                         std::uint64_t items, std::size_t trials,
                         stats::Rng& rng) {
  double score = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    core::DetectorProfile worse;
    worse.sensitivity = rng.uniform(0.40, 0.80);
    worse.fallout = rng.uniform(0.02, 0.15);
    core::DetectorProfile better = worse;
    better.sensitivity = std::min(0.99, worse.sensitivity + gap);
    better.fallout = std::max(0.001, worse.fallout * (1.0 - 2.0 * gap));
    const auto ub = core::metric_utility(
        id, core::compute_metric(
                id, core::make_abstract_context(
                        core::sample_confusion(better, prevalence, items, rng),
                        5.0, 1.0)));
    const auto uw = core::metric_utility(
        id, core::compute_metric(
                id, core::make_abstract_context(
                        core::sample_confusion(worse, prevalence, items, rng),
                        5.0, 1.0)));
    if (!std::isfinite(ub) || !std::isfinite(uw) || ub == uw)
      score += 0.5;
    else if (ub > uw)
      score += 1.0;
  }
  return score / static_cast<double>(trials);
}

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  const std::vector<double> gaps = {0.01, 0.02, 0.04, 0.08, 0.12, 0.20};
  const std::vector<core::MetricId> metrics = {
      core::MetricId::kAccuracy, core::MetricId::kPrecision,
      core::MetricId::kRecall,   core::MetricId::kFMeasure,
      core::MetricId::kMcc,      core::MetricId::kInformedness};

  for (const double prevalence : {0.10, 0.01}) {
    const auto scope = ctx.timer.scope(
        stage::kGridPrevalencePrefix + report::format_percent(prevalence));
    out << "E4: P(correct tool ordering) vs quality gap, prevalence "
        << report::format_percent(prevalence) << " (" << kItems
        << "-site benchmarks, " << kTrials << " trials/point)\n\n";
    std::vector<std::string> headers = {"gap"};
    for (const core::MetricId id : metrics)
      headers.push_back(std::string(core::metric_info(id).key));
    report::Table table(std::move(headers));

    report::LineChart chart(
        "E4 figure: discrimination vs quality gap (prevalence " +
            report::format_percent(prevalence) + ")",
        "quality gap", "P(correct ordering)");
    chart.set_y_range(0.4, 1.0);
    std::vector<report::Series> series(metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m)
      series[m].name = std::string(core::metric_info(metrics[m]).key);

    std::vector<double> cells(gaps.size() * metrics.size());
    stats::parallel_for_indexed(cells.size(), [&](std::size_t i) {
      const double gap = gaps[i / metrics.size()];
      const core::MetricId id = metrics[i % metrics.size()];
      stats::Rng rng =
          stats::Rng(kStudySeed)
              .split(static_cast<std::uint64_t>(gap * 1000))
              .split(static_cast<std::uint64_t>(id))
              .split(static_cast<std::uint64_t>(prevalence * 1000));
      cells[i] =
          discrimination_at(id, gap, prevalence, kItems, kTrials, rng);
    });

    for (std::size_t g = 0; g < gaps.size(); ++g) {
      std::vector<std::string> row = {report::format_value(gaps[g], 2)};
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        const double d = cells[g * metrics.size() + m];
        row.push_back(report::format_value(d));
        series[m].x.push_back(gaps[g]);
        series[m].y.push_back(d);
      }
      table.add_row(std::move(row));
    }
    table.print(out);
    out << "\n";
    for (auto& s : series) chart.add_series(std::move(s));
    chart.print(out);
    out << "\n";
  }
  out << "Shape check: every metric climbs toward 1.0 with the gap at "
         "10% prevalence. At 1% prevalence the positive-class metrics "
         "(recall, F1, MCC, informedness) lose discrimination — a "
         "500-site benchmark holds only ~5 vulnerabilities — while "
         "accuracy still separates the pairs, but solely through the "
         "false-alarm dimension: on tools that trade detection power "
         "for quietness it orders by fallout alone (see E3/E7 for why "
         "that is misleading).\n";
}

}  // namespace

void register_e4(cli::ExperimentRegistry& registry) {
  registry.add({"e4", "discriminative power vs quality gap figure",
                "discrimination{trials=" + std::to_string(kTrials) +
                    ";items=" + std::to_string(kItems) +
                    ";prevalences=0.10,0.01}",
                true, run});
}

}  // namespace vdbench::bench
