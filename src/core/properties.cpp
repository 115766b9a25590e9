#include "core/properties.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/sampling.h"
#include "stats/descriptive.h"
#include "stats/parallel.h"

namespace vdbench::core {

namespace {

constexpr std::array<Property, kPropertyCount> kProperties = {
    Property::kDiscrimination,      Property::kMonotonicity,
    Property::kPrevalenceRobustness, Property::kStability,
    Property::kDefinedness,         Property::kNormalization,
    Property::kCostAwareness,       Property::kInterpretability,
    Property::kCollectionEase,
};

std::size_t property_index(Property p) {
  const auto it = std::find(kProperties.begin(), kProperties.end(), p);
  if (it == kProperties.end())
    throw std::invalid_argument("unknown property");
  return static_cast<std::size_t>(it - kProperties.begin());
}

// Normalise a raw metric value spread into [0,1] drift units: bounded
// metrics use their declared range width; unbounded ones use the largest
// observed magnitude (relative drift).
double normalized_spread(MetricId id, std::span<const double> values) {
  if (values.empty()) return 1.0;
  const double lo = stats::min(values);
  const double hi = stats::max(values);
  const double spread = hi - lo;
  if (spread == 0.0) return 0.0;
  if (metric_bounded(id)) {
    const MetricInfo& info = metric_info(id);
    return spread / (info.range_hi - info.range_lo);
  }
  double scale = 0.0;
  for (const double v : values) scale = std::max(scale, std::abs(v));
  return scale == 0.0 ? 0.0 : std::min(1.0, spread / scale);
}

// Derive one child Rng per task, serially and in index order, so a parallel
// sweep consumes the parent stream identically for every thread count.
std::vector<stats::Rng> split_children(stats::Rng& rng, std::size_t n) {
  std::vector<stats::Rng> children;
  children.reserve(n);
  for (std::size_t i = 0; i < n; ++i) children.push_back(rng.split(i));
  return children;
}

}  // namespace

std::span<const Property> all_properties() { return kProperties; }

std::string_view property_name(Property p) {
  switch (p) {
    case Property::kDiscrimination:
      return "discrimination";
    case Property::kMonotonicity:
      return "monotonicity";
    case Property::kPrevalenceRobustness:
      return "prevalence robustness";
    case Property::kStability:
      return "stability";
    case Property::kDefinedness:
      return "definedness";
    case Property::kNormalization:
      return "normalization";
    case Property::kCostAwareness:
      return "cost awareness";
    case Property::kInterpretability:
      return "interpretability";
    case Property::kCollectionEase:
      return "collection ease";
  }
  return "?";
}

std::string_view property_description(Property p) {
  switch (p) {
    case Property::kDiscrimination:
      return "separates tools of genuinely different quality";
    case Property::kMonotonicity:
      return "better tool never scores worse";
    case Property::kPrevalenceRobustness:
      return "stable across workload prevalence";
    case Property::kStability:
      return "low variance across repeated runs";
    case Property::kDefinedness:
      return "defined on small/degenerate benchmarks";
    case Property::kNormalization:
      return "finite normalised range";
    case Property::kCostAwareness:
      return "reflects miss/false-alarm cost ratio";
    case Property::kInterpretability:
      return "directly interpretable by practitioners";
    case Property::kCollectionEase:
      return "cheap to collect (no imposed TN frame)";
  }
  return "?";
}

void AssessmentConfig::validate() const {
  if (benchmark_items == 0 || asymptotic_items == 0)
    throw std::invalid_argument("AssessmentConfig: item counts must be > 0");
  if (base_prevalence <= 0.0 || base_prevalence >= 1.0)
    throw std::invalid_argument("AssessmentConfig: base_prevalence in (0,1)");
  if (trials == 0)
    throw std::invalid_argument("AssessmentConfig: trials must be > 0");
  if (prevalence_grid.empty())
    throw std::invalid_argument("AssessmentConfig: empty prevalence grid");
  for (const double p : prevalence_grid)
    if (p <= 0.0 || p >= 1.0)
      throw std::invalid_argument("AssessmentConfig: grid prevalence in (0,1)");
  if (cost_fn < 0.0 || cost_fp < 0.0)
    throw std::invalid_argument("AssessmentConfig: costs must be >= 0");
  if (quality_gaps.empty())
    throw std::invalid_argument("AssessmentConfig: empty quality gaps");
}

double MetricAssessment::score(Property p) const {
  return scores[property_index(p)];
}

double MetricAssessment::weighted_score(
    std::span<const double> weights) const {
  if (weights.size() != kPropertyCount)
    throw std::invalid_argument("weighted_score: need one weight per property");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument("weighted_score: weights must be >= 0");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("weighted_score: all-zero weights");
  double acc = 0.0;
  for (std::size_t i = 0; i < kPropertyCount; ++i)
    acc += weights[i] * scores[i];
  return acc / total;
}

PropertyAssessor::PropertyAssessor(AssessmentConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

MetricAssessment PropertyAssessor::assess(MetricId id,
                                          stats::Rng& rng) const {
  const MetricInfo& info = metric_info(id);
  MetricAssessment a;
  a.metric = id;
  a.scores[property_index(Property::kDiscrimination)] =
      assess_discrimination(id, rng);
  a.scores[property_index(Property::kMonotonicity)] = assess_monotonicity(id);
  a.scores[property_index(Property::kPrevalenceRobustness)] =
      assess_prevalence_robustness(id);
  a.scores[property_index(Property::kStability)] = assess_stability(id, rng);
  a.scores[property_index(Property::kDefinedness)] =
      assess_definedness(id, rng);
  a.scores[property_index(Property::kNormalization)] =
      metric_bounded(id) ? 1.0 : 0.0;
  a.scores[property_index(Property::kCostAwareness)] =
      assess_cost_awareness(id);
  a.scores[property_index(Property::kInterpretability)] =
      info.interpretability;
  a.scores[property_index(Property::kCollectionEase)] = info.collection_ease;
  return a;
}

std::vector<MetricAssessment> PropertyAssessor::assess_all(
    stats::Rng& rng) const {
  std::vector<MetricAssessment> out;
  for (const MetricId id : all_metrics()) {
    stats::Rng child = rng.split(static_cast<std::uint64_t>(id) + 101);
    out.push_back(assess(id, child));
  }
  return out;
}

double PropertyAssessor::assess_discrimination(MetricId id,
                                               stats::Rng& rng) const {
  if (metric_info(id).direction == Direction::kNone) return 0.0;
  const std::size_t comparisons = config_.quality_gaps.size() * config_.trials;
  std::vector<stats::Rng> children = split_children(rng, comparisons);
  // Sample both contexts of every comparison into their slots in parallel
  // (pre-split Rngs keep the draws thread-count invariant), then score
  // them in index order.
  std::vector<EvalContext> contexts(2 * comparisons);
  stats::parallel_for_indexed(comparisons, [&](std::size_t k) {
    stats::Rng& trial_rng = children[k];
    const double gap = config_.quality_gaps[k / config_.trials];
    DetectorProfile worse;
    worse.sensitivity = trial_rng.uniform(0.40, 0.85);
    worse.fallout = trial_rng.uniform(0.02, 0.20);
    DetectorProfile better = worse;
    better.sensitivity = std::min(0.99, worse.sensitivity + gap);
    better.fallout = std::max(0.001, worse.fallout * (1.0 - gap * 2.0));
    const ConfusionMatrix cm_better = sample_confusion(
        better, config_.base_prevalence, config_.benchmark_items, trial_rng);
    const ConfusionMatrix cm_worse = sample_confusion(
        worse, config_.base_prevalence, config_.benchmark_items, trial_rng);
    contexts[2 * k] = make_abstract_context(cm_better, config_.cost_fn,
                                            config_.cost_fp);
    contexts[2 * k + 1] = make_abstract_context(cm_worse, config_.cost_fn,
                                                config_.cost_fp);
  });
  double total = 0.0;  // fixed order: index 0..n-1
  for (std::size_t k = 0; k < comparisons; ++k) {
    const double u_better =
        metric_utility(id, compute_metric(id, contexts[2 * k]));
    const double u_worse =
        metric_utility(id, compute_metric(id, contexts[2 * k + 1]));
    if (!std::isfinite(u_better) || !std::isfinite(u_worse)) {
      total += 0.5;  // metric gives no answer
    } else if (u_better > u_worse) {
      total += 1.0;
    } else if (u_better == u_worse) {
      total += 0.5;
    }
  }
  return comparisons == 0 ? 0.0 : total / static_cast<double>(comparisons);
}

double PropertyAssessor::assess_monotonicity(MetricId id) const {
  if (metric_info(id).direction == Direction::kNone) return 0.0;
  const std::vector<double> sens_grid = {0.2, 0.35, 0.5, 0.65, 0.8, 0.9};
  const std::vector<double> fallout_grid = {0.01, 0.05, 0.10, 0.20};
  std::size_t satisfied = 0, considered = 0;
  const auto utility_at = [&](double sens, double fallout) {
    const ConfusionMatrix cm =
        expected_confusion(sens, fallout, config_.base_prevalence,
                           config_.asymptotic_items);
    return metric_utility(
        id, compute_metric(id, make_abstract_context(cm, config_.cost_fn,
                                                     config_.cost_fp)));
  };
  // Raising sensitivity at fixed fallout must not lower utility.
  for (const double fallout : fallout_grid) {
    for (std::size_t i = 0; i + 1 < sens_grid.size(); ++i) {
      const double lo = utility_at(sens_grid[i], fallout);
      const double hi = utility_at(sens_grid[i + 1], fallout);
      if (!std::isfinite(lo) || !std::isfinite(hi)) continue;
      ++considered;
      if (hi >= lo) ++satisfied;
    }
  }
  // Lowering fallout at fixed sensitivity must not lower utility.
  for (const double sens : sens_grid) {
    for (std::size_t i = 0; i + 1 < fallout_grid.size(); ++i) {
      const double better = utility_at(sens, fallout_grid[i]);
      const double worse = utility_at(sens, fallout_grid[i + 1]);
      if (!std::isfinite(better) || !std::isfinite(worse)) continue;
      ++considered;
      if (better >= worse) ++satisfied;
    }
  }
  return considered == 0
             ? 0.0
             : static_cast<double>(satisfied) / static_cast<double>(considered);
}

double PropertyAssessor::assess_prevalence_robustness(MetricId id) const {
  if (metric_info(id).direction == Direction::kNone) return 0.0;
  const std::vector<DetectorProfile> profiles = {
      {0.85, 0.05}, {0.60, 0.10}, {0.95, 0.20}};
  double drift_acc = 0.0;
  std::size_t profiles_used = 0;
  for (const DetectorProfile& d : profiles) {
    std::vector<double> values;
    std::size_t undefined = 0;
    for (const double prev : config_.prevalence_grid) {
      const ConfusionMatrix cm = expected_confusion(
          d.sensitivity, d.fallout, prev, config_.asymptotic_items);
      const double v = compute_metric(
          id, make_abstract_context(cm, config_.cost_fn, config_.cost_fp));
      if (std::isfinite(v))
        values.push_back(v);
      else
        ++undefined;
    }
    if (values.size() < 2) {
      drift_acc += 1.0;  // cannot even be evaluated across the grid
      ++profiles_used;
      continue;
    }
    double drift = normalized_spread(id, values);
    // Undefined grid points count as full drift for their share.
    const double undef_share =
        static_cast<double>(undefined) /
        static_cast<double>(config_.prevalence_grid.size());
    drift = std::min(1.0, drift + undef_share);
    drift_acc += drift;
    ++profiles_used;
  }
  return 1.0 - drift_acc / static_cast<double>(profiles_used);
}

double PropertyAssessor::assess_stability(MetricId id,
                                          stats::Rng& rng) const {
  if (metric_info(id).direction == Direction::kNone) return 0.0;
  const DetectorProfile d{0.70, 0.10};
  std::vector<stats::Rng> children = split_children(rng, config_.trials);
  std::vector<EvalContext> contexts(config_.trials);
  stats::parallel_for_indexed(config_.trials, [&](std::size_t t) {
    const ConfusionMatrix cm = sample_confusion(
        d, config_.base_prevalence, config_.benchmark_items, children[t]);
    contexts[t] =
        make_abstract_context(cm, config_.cost_fn, config_.cost_fp);
  });
  std::vector<double> values;
  values.reserve(config_.trials);
  for (const EvalContext& ctx : contexts) {
    const double v = compute_metric(id, ctx);
    if (std::isfinite(v)) values.push_back(v);
  }
  if (values.size() < 2) return 0.0;
  double nsd;
  if (metric_bounded(id)) {
    const MetricInfo& info = metric_info(id);
    nsd = stats::stddev(values) / (info.range_hi - info.range_lo);
  } else {
    const double m = std::abs(stats::mean(values));
    nsd = m == 0.0 ? 1.0 : std::min(1.0, stats::stddev(values) / m);
  }
  return 1.0 / (1.0 + 10.0 * nsd);
}

double PropertyAssessor::assess_definedness(MetricId id,
                                            stats::Rng& rng) const {
  constexpr std::uint64_t kSmallBenchmark = 40;
  std::vector<stats::Rng> children = split_children(rng, config_.trials);
  std::vector<EvalContext> contexts(config_.trials);
  stats::parallel_for_indexed(config_.trials, [&](std::size_t t) {
    stats::Rng& trial_rng = children[t];
    DetectorProfile d;
    d.sensitivity = trial_rng.uniform();
    d.fallout = trial_rng.uniform();
    const double prev = trial_rng.uniform(0.0, 0.5);
    const ConfusionMatrix cm =
        sample_confusion(d, prev, kSmallBenchmark, trial_rng);
    contexts[t] =
        make_abstract_context(cm, config_.cost_fn, config_.cost_fp);
  });
  std::size_t defined = 0;
  for (const EvalContext& ctx : contexts)
    if (std::isfinite(compute_metric(id, ctx))) ++defined;
  return static_cast<double>(defined) / static_cast<double>(config_.trials);
}

double PropertyAssessor::assess_cost_awareness(MetricId id) const {
  if (metric_info(id).direction == Direction::kNone) return 0.0;
  const ConfusionMatrix cm = expected_confusion(
      0.7, 0.1, config_.base_prevalence, config_.asymptotic_items);
  const double v_equal = compute_metric(id, make_abstract_context(cm, 1.0, 1.0));
  const double v_skewed =
      compute_metric(id, make_abstract_context(cm, 10.0, 1.0));
  if (!std::isfinite(v_equal) || !std::isfinite(v_skewed)) return 0.0;
  return v_equal != v_skewed ? 1.0 : 0.0;
}

}  // namespace vdbench::core
