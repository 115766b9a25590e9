// E15 (extension) — tool-combination analysis: union recall of tool pairs
// vs the independence prediction, with and without the shared-difficulty
// effect. When all tools miss the same hard instances, combining tools
// pays off much less than independence math suggests — a benchmarking
// conclusion only visible with per-instance ground truth.
#include <utility>
#include <vector>

#include "experiments.h"
#include "report/table.h"
#include "stats/parallel.h"
#include "study_common.h"
#include "vdsim/combine.h"
#include "vdsim/presets.h"

namespace vdbench::bench {

namespace {

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  for (const double gamma : {0.0, 2.0}) {
    const auto scope = ctx.timer.scope(stage::kPairAnalysisPrefix +
                                       report::format_value(gamma, 1));
    vdsim::WorkloadSpec spec =
        vdsim::preset_spec(vdsim::WorkloadPreset::kWebServices, 400);
    spec.difficulty_gamma = gamma;
    spec.difficulty_shape = vdsim::DifficultyShape::kBimodal;
    stats::Rng wrng = stats::Rng(kStudySeed + 15)
                          .split(static_cast<std::uint64_t>(gamma));
    const vdsim::Workload workload = generate_workload(spec, wrng);

    out << "E15: pairwise tool combination, difficulty gamma = " << gamma
        << (gamma == 0.0 ? " (independent misses)"
                         : " (correlated misses on hard instances)")
        << "\n(" << workload.total_vulns()
        << " seeded vulnerabilities)\n\n";

    report::Table table({"pair", "recall A", "recall B", "union",
                         "independent prediction", "deficit",
                         "marginal gain", "union FP"});
    const std::vector<vdsim::ToolProfile> tools = vdsim::builtin_tools();
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < tools.size(); ++i)
      for (std::size_t j = i + 1; j < tools.size(); ++j)
        pairs.emplace_back(i, j);
    // Each pair seeds its own chain, so pairs run on the pool into slots
    // and the rows and the deficit sum are built from the slots in order.
    std::vector<vdsim::Complementarity> slots(pairs.size());
    stats::parallel_for_indexed(pairs.size(), [&](std::size_t k) {
      const auto [i, j] = pairs[k];
      stats::Rng rng = stats::Rng(kStudySeed + 16)
                           .split(static_cast<std::uint64_t>(gamma))
                           .split(i * 100 + j);
      slots[k] = analyze_complementarity(tools[i], tools[j], workload,
                                         vdsim::CostModel{}, rng);
    });
    double total_deficit = 0.0;
    for (const vdsim::Complementarity& c : slots) {
      table.add_row({c.tool_a + "+" + c.tool_b,
                     report::format_value(c.recall_a),
                     report::format_value(c.recall_b),
                     report::format_value(c.union_recall),
                     report::format_value(c.independent_prediction),
                     report::format_value(c.correlation_deficit()),
                     report::format_value(c.marginal_gain()),
                     std::to_string(c.union_fp)});
      total_deficit += c.correlation_deficit();
    }
    table.print(out);
    out << "mean correlation deficit: "
        << report::format_value(total_deficit /
                                static_cast<double>(slots.size()))
        << "\n\n";
  }

  out << "Shape check: at gamma=0 the union recall sits on the "
         "independence prediction (deficit ~ 0, sampling noise "
         "aside); with the bimodal shared-difficulty effect every "
         "pair falls clearly short of it — the obscured half of the "
         "instances is invisible to all tools, capping what tool "
         "combination can deliver; cross-archetype pairs retain the "
         "largest marginal gains.\n";
}

}  // namespace

void register_e15(cli::ExperimentRegistry& registry) {
  registry.add({"e15", "tool-combination union recall vs independence",
                "combination{services=400;gammas=0,2;shape=bimodal}", true,
                run});
}

}  // namespace vdbench::bench
