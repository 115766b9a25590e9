// Study orchestrator: the whole DSN'15 three-stage study behind one API.
//
//   Study study;                                   // full-size defaults
//   study.recommendation("s1_critical").best();   // stage 1+2 selection
//   study.validation("s1_critical").same_top;     // stage 3 agreement
//
// The only code that wires and seeds the study's stages: the experiment
// driver creates one Study per run and every experiment reads its stages
// from it instead of re-wiring PropertyAssessor, ScenarioAnalyzer,
// MetricSelector and McdaValidator by hand. Each stage is computed on its
// first request and memoised; each derives its own Rng from the seed, so a
// stage's result is a pure function of the config — independent of which
// stages ran before it and of a scenario's position in the list.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/validation.h"

namespace vdbench::core {

/// Seed of the published study run (DSN'15 first day).
inline constexpr std::uint64_t kStudySeed = 20150622;

/// Configuration of a full study. The defaults are the full-size study
/// every experiment reports; tests use reduced copies.
struct StudyConfig {
  AssessmentConfig assessment{
      .benchmark_items = 500, .trials = 400, .asymptotic_items = 1'000'000};
  ScenarioAnalyzer::Config analyzer{.pair_trials = 2000};
  MetricSelector::Config selector{};
  ValidationConfig validation{};
  /// Scenarios to study; empty = the built-in S1..S5.
  std::vector<Scenario> scenarios;
  /// Master seed; every stage derives its own stream from it.
  std::uint64_t seed = kStudySeed;

  /// Throws std::invalid_argument when a sub-config is invalid.
  void validate() const;
};

/// Computes each study stage on first request and keeps the result.
///
/// A stage whose computation throws (an injected fault, a cancellation)
/// stores nothing, so the next request computes it afresh.
/// Not thread-safe: one Study serves one run, from one thread at a time.
class Study {
 public:
  explicit Study(StudyConfig config = StudyConfig{});

  [[nodiscard]] const StudyConfig& config() const noexcept { return config_; }

  /// Scenarios the study covers.
  [[nodiscard]] const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }

  /// Stage 1, catalogue order:
  /// PropertyAssessor(assessment).assess_all(Rng(seed)).
  [[nodiscard]] const std::vector<MetricAssessment>& assessments();

  /// Stage 2 for a scenario key: ScenarioAnalyzer(analyzer).analyze(s,
  /// ranking_metrics(), Rng(seed).split(std::hash<std::string>{}(s.key))).
  /// Throws std::invalid_argument for unknown keys.
  [[nodiscard]] const std::vector<EffectivenessResult>& effectiveness(
      std::string_view scenario_key);

  /// Stage-2+1 analytical recommendation for a scenario key.
  [[nodiscard]] const ScenarioRecommendation& recommendation(
      std::string_view scenario_key);

  /// Stage-3 validation outcome for a scenario key, on the stream
  /// Rng(seed + 8).split(std::hash<std::string>{}(s.key)).
  [[nodiscard]] const ValidationOutcome& validation(
      std::string_view scenario_key);

 private:
  const Scenario& find_scenario(std::string_view key) const;

  StudyConfig config_;
  std::vector<Scenario> scenarios_;
  std::optional<std::vector<MetricAssessment>> assessments_;
  std::map<std::string, std::vector<EffectivenessResult>, std::less<>>
      effectiveness_;
  std::map<std::string, ScenarioRecommendation, std::less<>> recommendations_;
  std::map<std::string, ValidationOutcome, std::less<>> validations_;
};

}  // namespace vdbench::core
