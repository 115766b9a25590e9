#include "vdsim/tool.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vdbench::vdsim {

namespace {

// Archetype class-affinity multipliers applied to a base sensitivity:
// which vulnerability classes each tool family is good at. Order matches
// the VulnClass enum: {sqli, xss, cmdi, path, bof, intof, uaf, crypto}.
PerClass<double> archetype_affinity(ToolArchetype a) {
  switch (a) {
    case ToolArchetype::kStaticAnalyzer:
      // Strong on memory/crypto patterns, weaker on injection semantics.
      return {0.75, 0.65, 0.70, 0.80, 1.00, 0.95, 0.90, 1.00};
    case ToolArchetype::kPenetrationTester:
      // Strong on externally reachable injection flaws, blind to memory.
      return {1.00, 0.95, 0.90, 0.85, 0.30, 0.25, 0.15, 0.40};
    case ToolArchetype::kFuzzer:
      // Crash-oriented: memory and integer errors dominate.
      return {0.45, 0.30, 0.55, 0.50, 1.00, 0.90, 0.95, 0.10};
    case ToolArchetype::kManualReview:
      // Balanced but throughput-limited.
      return {0.85, 0.85, 0.85, 0.85, 0.80, 0.75, 0.75, 0.90};
  }
  throw std::invalid_argument("archetype_affinity: unknown archetype");
}

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

// Archetype false-alarm multipliers: static analysers are notoriously
// noisy, penetration testers confirm findings before reporting, fuzzers
// report crashes (near-zero false alarms), manual review is in between.
double archetype_fallout_factor(ToolArchetype a) {
  switch (a) {
    case ToolArchetype::kStaticAnalyzer:
      return 1.5;
    case ToolArchetype::kPenetrationTester:
      return 0.3;
    case ToolArchetype::kFuzzer:
      return 0.1;
    case ToolArchetype::kManualReview:
      return 0.8;
  }
  throw std::invalid_argument("archetype_fallout_factor: unknown archetype");
}

}  // namespace

std::string_view archetype_name(ToolArchetype a) {
  switch (a) {
    case ToolArchetype::kStaticAnalyzer:
      return "static analyzer";
    case ToolArchetype::kPenetrationTester:
      return "penetration tester";
    case ToolArchetype::kFuzzer:
      return "fuzzer";
    case ToolArchetype::kManualReview:
      return "manual review";
  }
  return "?";
}

void ToolProfile::validate() const {
  if (name.empty()) throw std::invalid_argument("ToolProfile: name required");
  // Negated-range comparisons so NaN (which fails every ordering) is
  // rejected rather than slipping past a `< lo || > hi` pair.
  for (const double s : sensitivity)
    if (!(s >= 0.0 && s <= 1.0))
      throw std::invalid_argument("ToolProfile: sensitivity in [0,1]");
  if (!(fallout >= 0.0 && fallout <= 1.0))
    throw std::invalid_argument("ToolProfile: fallout in [0,1]");
  if (!(confidence_tp_mean >= 0.0 && confidence_tp_mean <= 1.0))
    throw std::invalid_argument("ToolProfile: confidence_tp_mean in [0,1]");
  if (!(confidence_fp_mean >= 0.0 && confidence_fp_mean <= 1.0))
    throw std::invalid_argument("ToolProfile: confidence_fp_mean in [0,1]");
  if (!(confidence_sd >= 0.0))
    throw std::invalid_argument("ToolProfile: confidence_sd >= 0");
  if (!(speed_kloc_per_second > 0.0))
    throw std::invalid_argument("ToolProfile: speed must be > 0");
  if (!(startup_seconds >= 0.0))
    throw std::invalid_argument("ToolProfile: startup_seconds >= 0");
}

ToolReport run_tool(const ToolProfile& tool, const Workload& workload,
                    stats::Rng& rng) {
  tool.validate();
  ToolReport report;
  report.tool_name = tool.name;
  report.analysis_seconds =
      tool.startup_seconds + workload.total_kloc() / tool.speed_kloc_per_second;

  const auto emit_confidence = [&](double mean) {
    return clamp01(rng.normal(mean, tool.confidence_sd));
  };

  const double gamma = workload.spec().difficulty_gamma;
  for (std::size_t s = 0; s < workload.services().size(); ++s) {
    const Service& svc = workload.services()[s];
    // True detections. With a positive difficulty_gamma the detection
    // probability decays on hard instances: sens * (1-difficulty)^gamma —
    // every tool struggles on the same instances (correlated misses).
    for (const VulnInstance& vuln : svc.vulns) {
      const double base = tool.sensitivity[vuln_class_index(vuln.vuln_class)];
      const double sens =
          gamma == 0.0
              ? base
              : base * std::pow(1.0 - vuln.difficulty, gamma);
      if (!rng.bernoulli(sens)) continue;
      Finding f;
      f.service_index = s;
      f.site_index = vuln.site_index;
      f.claimed_class = vuln.vuln_class;
      f.confidence = emit_confidence(tool.confidence_tp_mean);
      report.findings.push_back(f);
    }
    // False alarms on clean sites.
    const std::size_t clean_sites = svc.candidate_sites - svc.vulns.size();
    const auto alarms =
        static_cast<std::size_t>(rng.binomial(clean_sites, tool.fallout));
    if (alarms == 0) continue;
    // Pick distinct clean sites: sample from the clean-site ordinal space
    // and map around the vulnerable sites.
    const std::vector<std::size_t> picks =
        rng.sample_without_replacement(clean_sites, alarms);
    // Build the sorted list of vulnerable site indices once per service.
    std::vector<std::size_t> vuln_sites;
    vuln_sites.reserve(svc.vulns.size());
    for (const VulnInstance& v : svc.vulns) vuln_sites.push_back(v.site_index);
    std::sort(vuln_sites.begin(), vuln_sites.end());
    for (std::size_t ordinal : picks) {
      // Map the ordinal among clean sites to an absolute site index by
      // skipping vulnerable sites (vuln_sites is sorted).
      std::size_t site = ordinal;
      for (const std::size_t vs : vuln_sites) {
        if (vs <= site)
          ++site;
        else
          break;
      }
      Finding f;
      f.service_index = s;
      f.site_index = site;
      f.claimed_class =
          all_vuln_classes()[rng.pick_index(kVulnClassCount)];
      f.confidence = emit_confidence(tool.confidence_fp_mean);
      report.findings.push_back(f);
    }
  }
  return report;
}

std::vector<core::ScoredItem> run_tool_scored(const ToolProfile& tool,
                                              const Workload& workload,
                                              stats::Rng& rng) {
  tool.validate();
  if (tool.confidence_sd <= 0.0)
    throw std::invalid_argument(
        "run_tool_scored: confidence_sd must be > 0 for a ranking detector");
  const double d_prime =
      (tool.confidence_tp_mean - tool.confidence_fp_mean) /
      tool.confidence_sd;
  std::vector<core::ScoredItem> items;
  items.reserve(static_cast<std::size_t>(workload.total_sites()));
  for (std::size_t s = 0; s < workload.services().size(); ++s) {
    const Service& svc = workload.services()[s];
    for (std::size_t site = 0; site < svc.candidate_sites; ++site) {
      const VulnInstance* vuln = workload.vuln_at(s, site);
      core::ScoredItem item;
      item.positive = vuln != nullptr;
      const bool detectable =
          vuln != nullptr &&
          rng.bernoulli(tool.sensitivity[vuln_class_index(vuln->vuln_class)]);
      item.score = rng.normal(detectable ? d_prime : 0.0, 1.0);
      items.push_back(item);
    }
  }
  return items;
}

ToolProfile make_archetype_profile(ToolArchetype archetype, double quality,
                                   std::string name) {
  if (quality < 0.0 || quality > 1.0)
    throw std::invalid_argument("make_archetype_profile: quality in [0,1]");
  ToolProfile t;
  t.name = std::move(name);
  t.archetype = archetype;
  const PerClass<double> affinity = archetype_affinity(archetype);
  // Base sensitivity grows with quality: 0.25 at q=0 up to 0.95 at q=1.
  const double base = 0.25 + 0.70 * quality;
  for (std::size_t c = 0; c < kVulnClassCount; ++c)
    t.sensitivity[c] = clamp01(base * affinity[c]);
  // Fallout shrinks with quality (12% down to 0.5%) and scales with the
  // archetype's reporting discipline.
  t.fallout = std::clamp(
      (0.12 - 0.115 * quality) * archetype_fallout_factor(archetype), 0.0005,
      0.30);
  // Better tools separate their confidences more.
  t.confidence_tp_mean = 0.60 + 0.30 * quality;
  t.confidence_fp_mean = 0.50 - 0.15 * quality;
  t.confidence_sd = 0.15;
  switch (archetype) {
    case ToolArchetype::kStaticAnalyzer:
      t.speed_kloc_per_second = 2.0;
      t.startup_seconds = 10.0;
      break;
    case ToolArchetype::kPenetrationTester:
      t.speed_kloc_per_second = 0.3;
      t.startup_seconds = 30.0;
      break;
    case ToolArchetype::kFuzzer:
      t.speed_kloc_per_second = 0.05;
      t.startup_seconds = 60.0;
      break;
    case ToolArchetype::kManualReview:
      t.speed_kloc_per_second = 0.01;
      t.startup_seconds = 0.0;
      break;
  }
  t.validate();
  return t;
}

std::vector<ToolProfile> builtin_tools() {
  return {
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.80, "SA-Pro"),
      make_archetype_profile(ToolArchetype::kStaticAnalyzer, 0.45,
                             "SA-Community"),
      make_archetype_profile(ToolArchetype::kPenetrationTester, 0.75,
                             "PT-Suite"),
      make_archetype_profile(ToolArchetype::kPenetrationTester, 0.50,
                             "PT-Lite"),
      make_archetype_profile(ToolArchetype::kFuzzer, 0.65, "Fuzz-Engine"),
      make_archetype_profile(ToolArchetype::kManualReview, 0.70,
                             "ExpertReview"),
  };
}

ToolProfile sample_tool(double quality_lo, double quality_hi,
                        stats::Rng& rng) {
  if (!(0.0 <= quality_lo && quality_lo < quality_hi && quality_hi <= 1.0))
    throw std::invalid_argument("sample_tool: bad quality range");
  constexpr std::array<ToolArchetype, 4> kArchetypes = {
      ToolArchetype::kStaticAnalyzer, ToolArchetype::kPenetrationTester,
      ToolArchetype::kFuzzer, ToolArchetype::kManualReview};
  const ToolArchetype archetype = kArchetypes[rng.pick_index(4)];
  const double quality = rng.uniform(quality_lo, quality_hi);
  const auto tag = static_cast<std::uint64_t>(rng.uniform_int(0, 999999));
  return make_archetype_profile(archetype, quality,
                                std::string(archetype_name(archetype)) + "-" +
                                    std::to_string(tag));
}

}  // namespace vdbench::vdsim
