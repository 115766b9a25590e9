#include "report/export.h"

#include "report/json.h"

namespace vdbench::report {

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
