// E14 (extension) — per-class capability analysis across corpus
// archetypes: the built-in tools' per-CWE-class recall on each workload
// preset, their macro class recall and their weakest class. Shows why a
// single aggregate number hides the capability structure that actually
// decides which tool fits a codebase.
#include <array>
#include <span>
#include <vector>

#include "experiments.h"
#include "report/table.h"
#include "stats/parallel.h"
#include "study_common.h"
#include "vdsim/presets.h"
#include "vdsim/runner.h"

namespace vdbench::bench {

namespace {

// One preset's built-in tool results and its seeded vulnerability count.
struct PresetRun {
  std::uint64_t total_vulns = 0;
  std::vector<vdsim::BenchmarkResult> results;
};

// Each preset seeds its own chain from `seed`, so presets can run in any
// order on any thread.
PresetRun run_preset(vdsim::WorkloadPreset preset, std::size_t services,
                     std::uint64_t seed) {
  const vdsim::WorkloadSpec spec = vdsim::preset_spec(preset, services);
  stats::Rng wrng = stats::Rng(seed).split(static_cast<std::uint64_t>(preset));
  const vdsim::Workload workload = generate_workload(spec, wrng);
  stats::Rng rng = wrng.split(1);
  return {workload.total_vulns(),
          run_benchmarks(vdsim::builtin_tools(), workload, vdsim::CostModel{},
                         rng)};
}

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  out << "E14 (extension): per-class tool capability across corpus "
         "archetypes\n\n";

  // Summary over all presets: macro class recall + weakest class.
  const std::span<const vdsim::WorkloadPreset> presets =
      vdsim::all_workload_presets();
  std::vector<PresetRun> summary_runs(presets.size());
  {
    const auto scope = ctx.timer.scope(stage::kPresetSummary);
    stats::parallel_for_indexed(presets.size(), [&](std::size_t i) {
      summary_runs[i] = run_preset(presets[i], 200, kStudySeed + 14);
    });
  }
  report::Table summary({"preset", "tool", "recall", "macro class recall",
                         "weakest class"});
  for (std::size_t i = 0; i < presets.size(); ++i) {
    for (const vdsim::BenchmarkResult& r : summary_runs[i].results) {
      summary.add_row(
          {std::string(vdsim::preset_key(presets[i])), r.tool_name,
           report::format_value(r.metric(core::MetricId::kRecall)),
           report::format_value(r.macro_class_recall()),
           summary_runs[i].total_vulns == 0
               ? "-"
               : std::string(vdsim::vuln_class_name(r.weakest_class()))});
    }
  }
  summary.print(out);

  // Detailed per-class recall on the two most contrasting presets.
  const std::array<vdsim::WorkloadPreset, 2> detailed = {
      vdsim::WorkloadPreset::kWebServices,
      vdsim::WorkloadPreset::kLegacyMonolith};
  std::vector<PresetRun> detail_runs(detailed.size());
  {
    const auto scope = ctx.timer.scope(stage::kPerClassDetail);
    stats::parallel_for_indexed(detailed.size(), [&](std::size_t i) {
      detail_runs[i] = run_preset(detailed[i], 300, kStudySeed + 15);
    });
  }
  for (std::size_t i = 0; i < detailed.size(); ++i) {
    out << "\nper-class recall — " << vdsim::preset_key(detailed[i]) << " ("
        << vdsim::preset_description(detailed[i]) << "; "
        << detail_runs[i].total_vulns << " seeded vulnerabilities)\n";
    std::vector<std::string> headers = {"tool"};
    for (const vdsim::VulnClass c : vdsim::all_vuln_classes())
      headers.push_back(std::string(vdsim::vuln_class_cwe(c)));
    report::Table table(std::move(headers));
    for (const vdsim::BenchmarkResult& r : detail_runs[i].results) {
      std::vector<std::string> row = {r.tool_name};
      for (const vdsim::VulnClass c : vdsim::all_vuln_classes())
        row.push_back(report::format_value(
            r.by_class[vdsim::vuln_class_index(c)].recall(), 2));
      table.add_row(std::move(row));
    }
    table.print(out);
  }

  out << "\nShape check: penetration testers lead on CWE-89/79 "
         "(injection) and collapse on CWE-120/416 (memory); fuzzers "
         "invert that; the pen-tester's overall recall roughly halves "
         "from web_services to legacy_monolith while the fuzzer's "
         "rises — the workload archetype is part of the scenario.\n";
}

}  // namespace

void register_e14(cli::ExperimentRegistry& registry) {
  registry.add({"e14", "per-class capability across corpus archetypes",
                "perclass{presets=all;services=200/300}", true, run});
}

}  // namespace vdbench::bench
