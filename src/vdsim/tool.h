// Simulated vulnerability detection tools.
//
// A tool is characterised by per-class sensitivity (probability of
// reporting a seeded vulnerability of that class), a fallout rate per
// clean candidate site, a confidence model separating true from false
// findings (this is what gives tools a ROC curve), and a timing model.
// Four archetypes reconstruct the tool families the paper's benchmarks
// cover: static analysers, penetration testers, fuzzers and manual review.
#pragma once

#include <string>
#include <vector>

#include "core/roc.h"
#include "stats/rng.h"
#include "vdsim/vuln.h"
#include "vdsim/workload.h"

namespace vdbench::vdsim {

/// Tool family; determines the shape of the per-class sensitivity profile.
enum class ToolArchetype : std::uint8_t {
  kStaticAnalyzer,
  kPenetrationTester,
  kFuzzer,
  kManualReview,
};

/// Display name, e.g. "static analyzer".
[[nodiscard]] std::string_view archetype_name(ToolArchetype a);

/// Complete behavioural profile of a simulated tool.
struct ToolProfile {
  std::string name;
  ToolArchetype archetype = ToolArchetype::kStaticAnalyzer;
  /// P(report | seeded vuln of class c).
  PerClass<double> sensitivity{};
  /// P(alarm | clean candidate site).
  double fallout = 0.0;
  /// Confidence model: reported confidences are Normal(mean, sd) clamped
  /// to [0,1]; separate means for true and false findings.
  double confidence_tp_mean = 0.75;
  double confidence_fp_mean = 0.45;
  double confidence_sd = 0.15;
  /// Timing model: seconds = startup + kloc / speed.
  double speed_kloc_per_second = 1.0;
  double startup_seconds = 5.0;

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

/// One reported finding.
struct Finding {
  std::size_t service_index = 0;
  std::size_t site_index = 0;
  VulnClass claimed_class{};
  double confidence = 0.0;
};

/// The output of one tool run over one workload.
struct ToolReport {
  std::string tool_name;
  std::vector<Finding> findings;
  double analysis_seconds = 0.0;
};

/// Executes a tool profile over a workload (stochastic; deterministic
/// given the Rng seed).
[[nodiscard]] ToolReport run_tool(const ToolProfile& tool,
                                  const Workload& workload, stats::Rng& rng);

/// Ranking-detector view of a tool (used by ROC analysis, E11): a latent
/// suspicion score for EVERY candidate site of the workload, in arbitrary
/// units. Clean sites score ~ N(0,1); a vulnerable site of class c scores
/// ~ N(d', 1) with probability sensitivity[c] (detectable) and like a
/// clean site otherwise, where d' = (confidence_tp_mean -
/// confidence_fp_mean) / confidence_sd is the tool's confidence
/// separation. Deterministic given the Rng seed.
[[nodiscard]] std::vector<core::ScoredItem> run_tool_scored(
    const ToolProfile& tool, const Workload& workload, stats::Rng& rng);

/// Build an archetype profile at an overall quality level in [0,1]
/// (0 = weak tool, 1 = excellent tool). Class strengths/weaknesses follow
/// the archetype; fallout and confidence separation improve with quality.
[[nodiscard]] ToolProfile make_archetype_profile(ToolArchetype archetype,
                                                 double quality,
                                                 std::string name);

/// Six named tools used by the case-study experiment (E5): two static
/// analysers, two penetration testers, one fuzzer and one manual review,
/// at distinct quality levels.
[[nodiscard]] std::vector<ToolProfile> builtin_tools();

/// Sample a random tool: archetype chosen uniformly, quality uniform in
/// [quality_lo, quality_hi]. Used by ranking-agreement experiments.
[[nodiscard]] ToolProfile sample_tool(double quality_lo, double quality_hi,
                                      stats::Rng& rng);

}  // namespace vdbench::vdsim
