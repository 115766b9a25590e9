#include "core/selection.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "stats/hypothesis.h"

namespace vdbench::core {

namespace {

struct PairOutcome {
  // Evaluation contexts for the truly-better and truly-worse tool.
  EvalContext better;
  EvalContext worse;
};

// Sample one distinguishable tool pair and one benchmark run per tool.
PairOutcome sample_pair(const Scenario& scenario,
                        const ScenarioAnalyzer::Config& cfg,
                        stats::Rng& rng) {
  DetectorProfile a, b;
  double cost_a = 0.0, cost_b = 0.0;
  for (std::size_t attempt = 0;; ++attempt) {
    a = scenario.sample_tool(rng);
    b = scenario.sample_tool(rng);
    cost_a = scenario.true_cost(a);
    cost_b = scenario.true_cost(b);
    const double hi = std::max(cost_a, cost_b);
    const double gap = hi == 0.0 ? 0.0 : std::abs(cost_a - cost_b) / hi;
    if (gap >= cfg.min_relative_cost_gap || attempt >= cfg.max_resamples)
      break;
  }
  const DetectorProfile& better_tool = cost_a <= cost_b ? a : b;
  const DetectorProfile& worse_tool = cost_a <= cost_b ? b : a;
  PairOutcome out;
  out.better = make_abstract_context(
      sample_confusion(better_tool, scenario.prevalence,
                       scenario.benchmark_items, rng),
      scenario.cost_fn, scenario.cost_fp);
  out.worse = make_abstract_context(
      sample_confusion(worse_tool, scenario.prevalence,
                       scenario.benchmark_items, rng),
      scenario.cost_fn, scenario.cost_fp);
  return out;
}

}  // namespace

ScenarioAnalyzer::ScenarioAnalyzer(Config config) : config_(config) {
  if (config_.pair_trials == 0)
    throw std::invalid_argument("ScenarioAnalyzer: pair_trials must be > 0");
  if (config_.min_relative_cost_gap < 0.0 ||
      config_.min_relative_cost_gap >= 1.0)
    throw std::invalid_argument(
        "ScenarioAnalyzer: min_relative_cost_gap in [0,1)");
}

std::vector<EffectivenessResult> ScenarioAnalyzer::analyze(
    const Scenario& scenario, std::span<const MetricId> metrics,
    stats::Rng& rng) const {
  scenario.validate();
  if (metrics.empty())
    throw std::invalid_argument("ScenarioAnalyzer::analyze: no metrics");
  std::vector<EffectivenessResult> results(metrics.size());
  for (std::size_t m = 0; m < metrics.size(); ++m)
    results[m].metric = metrics[m];

  std::vector<double> fidelity(metrics.size(), 0.0);
  std::vector<std::size_t> undefined(metrics.size(), 0);
  std::vector<std::size_t> ties(metrics.size(), 0);

  for (std::size_t t = 0; t < config_.pair_trials; ++t) {
    const PairOutcome pair = sample_pair(scenario, config_, rng);
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      const MetricId id = metrics[m];
      const double u_better =
          metric_utility(id, compute_metric(id, pair.better));
      const double u_worse =
          metric_utility(id, compute_metric(id, pair.worse));
      if (!std::isfinite(u_better) || !std::isfinite(u_worse)) {
        fidelity[m] += 0.5;
        ++undefined[m];
      } else if (u_better > u_worse) {
        fidelity[m] += 1.0;
      } else if (u_better == u_worse) {
        fidelity[m] += 0.5;
        ++ties[m];
      }
    }
  }

  const double n = static_cast<double>(config_.pair_trials);
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    EffectivenessResult& r = results[m];
    r.trials = config_.pair_trials;
    r.ranking_fidelity = fidelity[m] / n;
    r.undefined_rate = static_cast<double>(undefined[m]) / n;
    r.tie_rate = static_cast<double>(ties[m]) / n;
    r.fidelity_se =
        std::sqrt(std::max(0.0, r.ranking_fidelity * (1.0 - r.ranking_fidelity)) / n);
    const stats::ProportionInterval wilson =
        stats::wilson_interval(fidelity[m], n, 0.95);
    r.fidelity_lower = wilson.lower;
    r.fidelity_upper = wilson.upper;
  }
  return results;
}

const MetricRecommendation& ScenarioRecommendation::best() const {
  if (ranked.empty())
    throw std::out_of_range("ScenarioRecommendation: empty ranking");
  return ranked.front();
}

std::size_t ScenarioRecommendation::rank_of(MetricId metric) const {
  for (std::size_t i = 0; i < ranked.size(); ++i)
    if (ranked[i].metric == metric) return i;
  throw std::invalid_argument("ScenarioRecommendation: metric not ranked");
}

std::vector<double> ScenarioRecommendation::overall_scores_in_catalogue_order(
    std::span<const MetricId> metrics) const {
  std::unordered_map<MetricId, double> by_id;
  for (const MetricRecommendation& r : ranked) by_id[r.metric] = r.overall;
  std::vector<double> out;
  out.reserve(metrics.size());
  for (const MetricId id : metrics) {
    const auto it = by_id.find(id);
    if (it == by_id.end())
      throw std::invalid_argument(
          "overall_scores_in_catalogue_order: metric missing from ranking");
    out.push_back(it->second);
  }
  return out;
}

MetricSelector::MetricSelector(Config config) : config_(config) {
  if (config_.effectiveness_weight < 0.0 || config_.effectiveness_weight > 1.0)
    throw std::invalid_argument(
        "MetricSelector: effectiveness_weight in [0,1]");
}

ScenarioRecommendation MetricSelector::recommend(
    const Scenario& scenario, std::span<const MetricAssessment> assessments,
    std::span<const EffectivenessResult> effectiveness) const {
  scenario.validate();
  std::unordered_map<MetricId, const MetricAssessment*> assessment_by_id;
  for (const MetricAssessment& a : assessments)
    assessment_by_id[a.metric] = &a;

  ScenarioRecommendation rec;
  rec.scenario_key = scenario.key;
  for (const EffectivenessResult& eff : effectiveness) {
    if (metric_info(eff.metric).direction == Direction::kNone) continue;
    const auto it = assessment_by_id.find(eff.metric);
    if (it == assessment_by_id.end())
      throw std::invalid_argument(
          "MetricSelector: effectiveness result without assessment for " +
          std::string(metric_info(eff.metric).key));
    MetricRecommendation r;
    r.metric = eff.metric;
    r.effectiveness = eff.ranking_fidelity;
    r.property_score = it->second->weighted_score(scenario.property_weights);
    r.overall = config_.effectiveness_weight * r.effectiveness +
                (1.0 - config_.effectiveness_weight) * r.property_score;
    rec.ranked.push_back(r);
  }
  std::stable_sort(rec.ranked.begin(), rec.ranked.end(),
                   [](const MetricRecommendation& x,
                      const MetricRecommendation& y) {
                     return x.overall > y.overall;
                   });
  return rec;
}

}  // namespace vdbench::core
