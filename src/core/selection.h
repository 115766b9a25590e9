// Scenario-driven metric effectiveness analysis and the analytical metric
// selection — the computational heart of the DSN'15 study.
//
// For each scenario, the effectiveness of a metric is operationalised as
// *ranking fidelity*: the probability that, for two candidate tools of
// genuinely different quality under the scenario's cost model, a single
// benchmark run scored with that metric orders them correctly. Metrics
// that are undefined or tie on a pair contribute half (they give no
// answer). The analytical selection then blends fidelity with the
// scenario-weighted property scores from stage 1.
#pragma once

#include <span>
#include <vector>

#include "core/properties.h"
#include "core/scenario.h"

namespace vdbench::core {

/// Per-metric outcome of the effectiveness analysis for one scenario.
struct EffectivenessResult {
  MetricId metric{};
  /// P(correct pair ordering); 0.5 is chance level.
  double ranking_fidelity = 0.0;
  /// Fraction of trials where the metric was undefined for either tool.
  double undefined_rate = 0.0;
  /// Fraction of trials where the two tools received identical values.
  double tie_rate = 0.0;
  /// Standard error of ranking_fidelity (binomial).
  double fidelity_se = 0.0;
  /// Wilson 95% score interval of ranking_fidelity (ties counted as half
  /// a success).
  double fidelity_lower = 0.0;
  double fidelity_upper = 0.0;
  /// Number of tool pairs evaluated.
  std::size_t trials = 0;
};

/// Monte-Carlo effectiveness analysis of metrics within a scenario.
class ScenarioAnalyzer {
 public:
  struct Config {
    /// Tool pairs sampled per metric evaluation.
    std::size_t pair_trials = 1200;
    /// Pairs whose true costs differ by less than this relative margin are
    /// resampled — the benchmark is asked to order *distinguishable* tools.
    double min_relative_cost_gap = 0.05;
    /// Cap on resampling attempts per pair before accepting it anyway.
    std::size_t max_resamples = 64;
  };

  ScenarioAnalyzer() : ScenarioAnalyzer(Config{}) {}
  explicit ScenarioAnalyzer(Config config);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Effectiveness of each given metric (catalogue order preserved).
  /// All metrics are evaluated on the *same* sampled tool pairs and
  /// benchmark outcomes so their fidelities are directly comparable.
  [[nodiscard]] std::vector<EffectivenessResult> analyze(
      const Scenario& scenario, std::span<const MetricId> metrics,
      stats::Rng& rng) const;

 private:
  Config config_;
};

/// One metric's final standing in a scenario recommendation.
struct MetricRecommendation {
  MetricId metric{};
  double effectiveness = 0.0;    ///< ranking fidelity from ScenarioAnalyzer
  double property_score = 0.0;   ///< scenario-weighted stage-1 score
  double overall = 0.0;          ///< blended selection score
};

/// Ranked metric recommendation for one scenario (best first).
struct ScenarioRecommendation {
  std::string scenario_key;
  std::vector<MetricRecommendation> ranked;

  /// Best metric; throws std::out_of_range when empty.
  [[nodiscard]] const MetricRecommendation& best() const;
  /// Position of a metric in the ranking (0-based); throws
  /// std::invalid_argument when the metric is absent.
  [[nodiscard]] std::size_t rank_of(MetricId metric) const;
  /// Overall scores in the order of `ranked` entries' metric ids, as a
  /// map-like pair list flattened for rank-correlation computations.
  [[nodiscard]] std::vector<double> overall_scores_in_catalogue_order(
      std::span<const MetricId> metrics) const;
};

/// Blends stage-1 property scores and stage-2 effectiveness into the
/// paper's analytical per-scenario selection.
class MetricSelector {
 public:
  struct Config {
    /// Weight of ranking fidelity in the overall score; the remainder goes
    /// to the scenario-weighted property score.
    double effectiveness_weight = 0.7;
  };

  MetricSelector() : MetricSelector(Config{}) {}
  explicit MetricSelector(Config config);

  /// Combine pre-computed assessments and effectiveness results. Both
  /// spans must cover the same metrics (matched by id). Metrics with
  /// Direction::kNone are skipped.
  [[nodiscard]] ScenarioRecommendation recommend(
      const Scenario& scenario,
      std::span<const MetricAssessment> assessments,
      std::span<const EffectivenessResult> effectiveness) const;

 private:
  Config config_;
};

}  // namespace vdbench::core
