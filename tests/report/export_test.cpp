#include "report/export.h"

#include <gtest/gtest.h>

namespace vdbench::report {
namespace {

// Cheap structural checks: balanced braces/brackets and expected markers.
void expect_balanced(const std::string& json) {
  long braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char ch : json) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (ch == '\\')
        escaped = true;
      else if (ch == '"')
        in_string = false;
      continue;
    }
    switch (ch) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++braces;
        break;
      case '}':
        --braces;
        break;
      case '[':
        ++brackets;
        break;
      case ']':
        --brackets;
        break;
      default:
        break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(SuiteExportTest, ProducesBalancedDocument) {
  vdsim::SuiteConfig cfg;
  cfg.workload.num_services = 30;
  cfg.runs = 5;
  cfg.bootstrap_replicates = 100;
  const std::vector<vdsim::ToolProfile> tools = {
      vdsim::make_archetype_profile(vdsim::ToolArchetype::kStaticAnalyzer,
                                    0.7, "a"),
      vdsim::make_archetype_profile(vdsim::ToolArchetype::kFuzzer, 0.5, "b")};
  stats::Rng rng(1);
  const vdsim::SuiteResult suite = run_suite(
      tools, {core::MetricId::kFMeasure}, cfg, rng);
  const std::string json = suite_to_json(suite);
  expect_balanced(json);
  for (const char* marker : {"\"tools\"", "\"comparisons\"", "\"p_value\"",
                             "\"ci_lower\"", "\"f1\"", "\"values\""})
    EXPECT_NE(json.find(marker), std::string::npos) << marker;
}

}  // namespace
}  // namespace vdbench::report
