#include "report/export.h"

#include "report/json.h"

namespace vdbench::report {

namespace {

void write_assessment(JsonWriter& w, const core::MetricAssessment& a) {
  w.begin_object();
  w.field("metric", core::metric_info(a.metric).key);
  w.key("properties");
  w.begin_object();
  for (const core::Property p : core::all_properties())
    w.field(core::property_name(p), a.score(p));
  w.end_object();
  w.end_object();
}

void write_effectiveness(JsonWriter& w,
                         const core::EffectivenessResult& e) {
  w.begin_object();
  w.field("metric", core::metric_info(e.metric).key);
  w.field("ranking_fidelity", e.ranking_fidelity);
  w.field("fidelity_se", e.fidelity_se);
  w.field("undefined_rate", e.undefined_rate);
  w.field("tie_rate", e.tie_rate);
  w.field("trials", e.trials);
  w.end_object();
}

void write_recommendation(JsonWriter& w,
                          const core::ScenarioRecommendation& rec) {
  w.begin_array();
  for (const core::MetricRecommendation& r : rec.ranked) {
    w.begin_object();
    w.field("metric", core::metric_info(r.metric).key);
    w.field("overall", r.overall);
    w.field("effectiveness", r.effectiveness);
    w.field("property_score", r.property_score);
    w.end_object();
  }
  w.end_array();
}

void write_validation(JsonWriter& w, const core::ValidationOutcome& v) {
  w.begin_object();
  w.field("mcda_top", core::metric_info(v.mcda_top).key);
  w.field("analytical_top", core::metric_info(v.analytical_top).key);
  w.field("same_top", v.same_top);
  w.field("kendall_agreement", v.kendall_agreement);
  w.field("top3_overlap", v.top3_overlap);
  w.field("panel_consistency_ratio", v.ahp.consistency_ratio);
  w.field("panel_acceptable", v.ahp.acceptable());
  w.field("ahp_weights", v.ahp.weights);
  w.field("expert_consistency_ratios", v.expert_consistency_ratios);
  w.end_object();
}

}  // namespace

std::string study_to_json(core::Study& study) {
  JsonWriter w;
  w.begin_object();
  w.field("seed", study.config().seed);
  w.field("validated", study.validated());

  w.key("assessments");
  w.begin_array();
  for (const core::MetricAssessment& a : study.assessments())
    write_assessment(w, a);
  w.end_array();

  w.key("scenarios");
  w.begin_array();
  for (const core::Scenario& s : study.scenarios()) {
    w.begin_object();
    w.field("key", s.key);
    w.field("name", s.name);
    w.field("cost_fn", s.cost_fn);
    w.field("cost_fp", s.cost_fp);
    w.field("prevalence", s.prevalence);
    w.key("effectiveness");
    w.begin_array();
    for (const core::EffectivenessResult& e : study.effectiveness(s.key))
      write_effectiveness(w, e);
    w.end_array();
    w.key("recommendation");
    write_recommendation(w, study.recommendation(s.key));
    w.key("validation");
    write_validation(w, study.validation(s.key));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string suite_to_json(const vdsim::SuiteResult& suite) {
  JsonWriter w;
  w.begin_object();
  w.field("runs", suite.config.runs);
  w.field("confidence", suite.config.confidence);
  w.key("tools");
  w.begin_array();
  for (const vdsim::ToolEstimates& tool : suite.tools) {
    w.begin_object();
    w.field("name", tool.tool_name);
    w.key("metrics");
    w.begin_array();
    for (const vdsim::MetricEstimate& est : tool.metrics) {
      w.begin_object();
      w.field("metric", core::metric_info(est.metric).key);
      w.field("mean", est.ci.estimate);
      w.field("ci_lower", est.ci.lower);
      w.field("ci_upper", est.ci.upper);
      w.field("undefined_runs", est.undefined_runs);
      w.field("values", est.values);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("comparisons");
  w.begin_array();
  for (const vdsim::PairwiseComparison& cmp : suite.comparisons) {
    w.begin_object();
    w.field("tool_a", cmp.tool_a);
    w.field("tool_b", cmp.tool_b);
    w.field("metric", core::metric_info(cmp.metric).key);
    w.field("mean_a", cmp.mean_a);
    w.field("mean_b", cmp.mean_b);
    w.field("p_value", cmp.welch.p_value);
    w.field("probability_superiority", cmp.probability_superiority);
    w.field("significant", cmp.significant());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace vdbench::report
