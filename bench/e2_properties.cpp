// E2 — the metric-properties assessment matrix: every catalogue metric
// scored against the characteristics of a good vulnerability-detection
// metric (stage 1 of the study). Scores in [0,1]; higher is better.
#include "experiments.h"
#include "report/table.h"
#include "study_common.h"

namespace vdbench::bench {

namespace {

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  const core::AssessmentConfig& cfg = ctx.study.config().assessment;
  out << "E2: empirical assessment of metric properties\n"
      << "(trials=" << cfg.trials
      << ", benchmark size=" << cfg.benchmark_items
      << " sites, base prevalence=" << cfg.base_prevalence << ")\n\n";

  const auto& assessments = [&]() -> const auto& {
    const auto scope = ctx.timer.scope(stage::kStage1Assessment);
    return ctx.study.assessments();
  }();

  std::vector<std::string> headers = {"metric"};
  for (const core::Property p : core::all_properties())
    headers.push_back(std::string(core::property_name(p)));
  headers.push_back("mean");
  report::Table table(std::move(headers));

  for (const core::MetricAssessment& a : assessments) {
    std::vector<std::string> row = {
        std::string(core::metric_info(a.metric).key)};
    double sum = 0.0;
    for (const double s : a.scores) {
      row.push_back(report::format_value(s, 2));
      sum += s;
    }
    row.push_back(report::format_value(
        sum / static_cast<double>(core::kPropertyCount), 2));
    table.add_row(std::move(row));
  }
  table.print(out);

  out << "\nReading: 'prevalence robustness' separates the metrics "
         "whose values transfer across workloads (recall, "
         "informedness, balanced accuracy) from those that do not "
         "(precision, accuracy, MCC, kappa); 'definedness' penalises "
         "ratio metrics that blow up on small or degenerate "
         "benchmarks (likelihood ratios, DOR).\n";
}

}  // namespace

void register_e2(cli::ExperimentRegistry& registry) {
  registry.add({"e2", "metric-properties assessment matrix (stage 1)",
                stage1_fingerprint(), true, run});
}

}  // namespace vdbench::bench
