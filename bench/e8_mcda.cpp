// E8 — MCDA validation table (stage 3): per scenario, the simulated expert
// panel's AHP criteria weights and consistency, and the agreement between
// the MCDA ranking and the analytical selection.
#include "core/validation.h"
#include "experiments.h"
#include "report/table.h"
#include "study_common.h"

namespace vdbench::bench {

namespace {

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  core::Study& study = ctx.study;
  {  // stage 1 in its own phase; the validations below reuse it
    const auto scope = ctx.timer.scope(stage::kStage1Assessment);
    (void)study.assessments();
  }
  // 7 experts, noise 0.15, spread 0.20
  const core::ValidationConfig& vcfg = study.config().validation;

  out << "E8: MCDA validation of the analytical metric selection\n"
      << "(" << vcfg.expert_count << " simulated experts, judgment "
      << "noise " << vcfg.judgment_noise << ", persona spread "
      << vcfg.persona_spread << ")\n\n";

  report::Table summary({"scenario", "panel CR", "mean expert CR",
                         "MCDA top metric", "analytical top", "same top",
                         "Kendall tau", "top-3 overlap"});

  for (const core::Scenario& scenario : study.scenarios()) {
    const auto& val = [&]() -> const auto& {
      const auto scope = ctx.timer.scope(stage::kStage2Validation);
      return study.validation(scenario.key);
    }();

    double mean_cr = 0.0;
    for (const double cr : val.expert_consistency_ratios) mean_cr += cr;
    mean_cr /= static_cast<double>(val.expert_consistency_ratios.size());

    summary.add_row(
        {scenario.key, report::format_value(val.ahp.consistency_ratio),
         report::format_value(mean_cr),
         std::string(core::metric_info(val.mcda_top).key),
         std::string(core::metric_info(val.analytical_top).key),
         val.same_top ? "yes" : "no",
         report::format_value(val.kendall_agreement),
         report::format_percent(val.top3_overlap)});

    // Detailed weights for the first scenario as the worked example.
    if (scenario.key == "s1_critical") {
      out << "worked example — " << scenario.key
          << " AHP criteria weights:\n";
      report::Table weights({"criterion", "latent (scenario)", "AHP weight"});
      for (std::size_t c = 0; c < core::kPropertyCount; ++c)
        weights.add_row(
            {std::string(core::property_name(core::all_properties()[c])),
             report::format_value(scenario.property_weights[c]),
             report::format_value(val.ahp.weights[c])});
      weights.add_row({"scenario fit", report::format_value(
                                           vcfg.fit_criterion_weight),
                       report::format_value(
                           val.ahp.weights[core::kPropertyCount])});
      weights.print(out);
      out << "\n";
    }
  }

  summary.print(out);
  out << "\nShape check: every panel consistency ratio is below the "
         "0.10 acceptance threshold, and the MCDA ranking agrees "
         "with the analytical selection (positive tau, shared top "
         "choices) — the paper's validation conclusion.\n";
}

}  // namespace

void register_e8(cli::ExperimentRegistry& registry) {
  const core::ValidationConfig vcfg = core::StudyConfig{}.validation;
  registry.add({"e8", "MCDA validation table (stage 3)",
                stage1_fingerprint() + stage2_fingerprint() +
                    "validation{experts=" + std::to_string(vcfg.expert_count) +
                    ";noise=" + std::to_string(vcfg.judgment_noise) +
                    ";spread=" + std::to_string(vcfg.persona_spread) + "}",
                true, run});
}

}  // namespace vdbench::bench
