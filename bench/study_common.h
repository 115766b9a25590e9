// Shared study seed and stage fingerprints for the experiment registry.
//
// Every experiment regenerates one table/figure of the reconstructed
// DSN'15 evaluation (see DESIGN.md and EXPERIMENTS.md). The experiments
// that report study stages read them from the run's core::Study, whose
// default StudyConfig holds the full-size trial counts. The fingerprint
// helpers serialize that configuration for cache addressing — any change
// to a default there changes the fingerprint and therefore invalidates
// exactly the cached results it affects.
#pragma once

#include <string>

#include "core/study.h"

namespace vdbench::bench {

/// Seed shared by all experiments so printed artifacts are reproducible
/// run-to-run; the study's own stages are seeded with the same value.
inline constexpr std::uint64_t kStudySeed = core::kStudySeed;

/// Cache fingerprint of the stage-1 configuration.
inline std::string stage1_fingerprint() {
  const core::AssessmentConfig cfg = core::StudyConfig{}.assessment;
  std::string grid;
  for (const double p : cfg.prevalence_grid)
    grid += std::to_string(p) + ",";
  return "stage1{trials=" + std::to_string(cfg.trials) +
         ";items=" + std::to_string(cfg.benchmark_items) +
         ";prev=" + std::to_string(cfg.base_prevalence) +
         ";asymptotic=" + std::to_string(cfg.asymptotic_items) +
         ";grid=" + grid + "}";
}

/// Cache fingerprint of the stage-2 configuration.
inline std::string stage2_fingerprint() {
  const core::ScenarioAnalyzer::Config cfg = core::StudyConfig{}.analyzer;
  return "stage2{pairs=" + std::to_string(cfg.pair_trials) +
         ";gap=" + std::to_string(cfg.min_relative_cost_gap) +
         ";resamples=" + std::to_string(cfg.max_resamples) + "}";
}

}  // namespace vdbench::bench
