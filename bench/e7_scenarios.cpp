// E7 — the paper's central table: per-scenario metric effectiveness and
// the analytical selection. For each built-in scenario, every ranking
// metric's fidelity (probability of ordering two genuinely different tools
// correctly from one benchmark run), and the top-5 blended recommendation.
#include <algorithm>

#include "experiments.h"
#include "report/table.h"
#include "study_common.h"

namespace vdbench::bench {

namespace {

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  core::Study& study = ctx.study;
  {  // stage 1 in its own phase; the recommendations below reuse it
    const auto scope = ctx.timer.scope(stage::kStage1Assessment);
    (void)study.assessments();
  }

  out << "E7: scenario analysis — metric effectiveness and selection\n"
      << "(pair trials=" << study.config().analyzer.pair_trials
      << " per scenario; overall = 0.7*fidelity + 0.3*weighted "
         "property score)\n\n";

  report::Table summary({"scenario", "cost FN:FP", "prevalence",
                         "best metric", "runner-up", "third"});

  for (const core::Scenario& scenario : study.scenarios()) {
    const auto& effectiveness = [&]() -> const auto& {
      const auto scope = ctx.timer.scope(stage::kStage2Prefix + scenario.key);
      return study.effectiveness(scenario.key);
    }();
    const core::ScenarioRecommendation& rec =
        study.recommendation(scenario.key);

    out << "--- " << scenario.key << ": " << scenario.name << "\n"
        << scenario.description << "\n";
    report::Table table({"rank", "metric", "overall", "fidelity",
                         "undef-rate", "property score"});
    for (std::size_t i = 0; i < 10 && i < rec.ranked.size(); ++i) {
      const core::MetricRecommendation& r = rec.ranked[i];
      const auto eff_it = std::find_if(
          effectiveness.begin(), effectiveness.end(),
          [&](const core::EffectivenessResult& e) {
            return e.metric == r.metric;
          });
      table.add_row({std::to_string(i + 1),
                     std::string(core::metric_info(r.metric).name),
                     report::format_value(r.overall),
                     report::format_value(r.effectiveness),
                     report::format_percent(eff_it->undefined_rate),
                     report::format_value(r.property_score)});
    }
    table.print(out);
    // Where the traditional metrics landed.
    out << "traditional metrics: precision rank "
        << rec.rank_of(core::MetricId::kPrecision) + 1 << "/"
        << rec.ranked.size() << ", recall rank "
        << rec.rank_of(core::MetricId::kRecall) + 1 << "/"
        << rec.ranked.size() << ", accuracy rank "
        << rec.rank_of(core::MetricId::kAccuracy) + 1 << "/"
        << rec.ranked.size() << "\n\n";

    summary.add_row(
        {scenario.key,
         report::format_value(scenario.cost_fn, 0) + ":" +
             report::format_value(scenario.cost_fp, 0),
         report::format_percent(scenario.prevalence),
         std::string(core::metric_info(rec.ranked[0].metric).key),
         std::string(core::metric_info(rec.ranked[1].metric).key),
         std::string(core::metric_info(rec.ranked[2].metric).key)});
  }

  out << "=== summary: recommended metric per scenario\n";
  summary.print(out);
  out << "\nHeadline check (paper abstract): traditional metrics are "
         "adequate in some scenarios only; imbalanced and "
         "cost-asymmetric scenarios require seldom-used alternatives "
         "(cost-based metrics, informedness/MCC family).\n";
}

}  // namespace

void register_e7(cli::ExperimentRegistry& registry) {
  registry.add({"e7", "per-scenario effectiveness and selection (stage 2)",
                stage1_fingerprint() + stage2_fingerprint(), true, run});
}

}  // namespace vdbench::bench
