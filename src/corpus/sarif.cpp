#include "corpus/sarif.h"

#include <string>
#include <string_view>

#include "corpus/json_check.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vdbench::corpus {

namespace {

constexpr std::string_view kKind = "SARIF report";

SarifRule parse_rule(const report::JsonValue& rule, const detail::Path& path) {
  if (!rule.is_object())
    detail::fail_invalid(kKind, path.str() + " must be an object");
  SarifRule parsed;
  parsed.id = detail::require_string(
      detail::require_member(rule, "id", kKind, path), kKind, path.key("id"));
  if (const report::JsonValue* desc = rule.member("shortDescription")) {
    const detail::Path desc_path = path.key("shortDescription");
    parsed.short_description = detail::require_string(
        detail::require_member(*desc, "text", kKind, desc_path), kKind,
        desc_path.key("text"));
  }
  if (const report::JsonValue* config = rule.member("defaultConfiguration"))
    if (const report::JsonValue* level = config->member("level")) {
      const detail::Path config_path = path.key("defaultConfiguration");
      parsed.level =
          detail::require_string(*level, kKind, config_path.key("level"));
    }
  return parsed;
}

SarifFinding parse_result(const report::JsonValue& result,
                          const detail::Path& path) {
  if (!result.is_object())
    detail::fail_invalid(kKind, path.str() + " must be an object");
  SarifFinding finding;
  finding.rule_id = detail::require_string(
      detail::require_member(result, "ruleId", kKind, path), kKind,
      path.key("ruleId"));
  finding.level = "warning";  // the SARIF default when level is omitted
  if (const report::JsonValue* level = result.member("level"))
    finding.level = detail::require_string(*level, kKind, path.key("level"));
  if (const report::JsonValue* message = result.member("message")) {
    const detail::Path message_path = path.key("message");
    finding.message = detail::require_string(
        detail::require_member(*message, "text", kKind, message_path), kKind,
        message_path.key("text"));
  }

  const detail::Path locations_path = path.key("locations");
  const report::JsonArray locations = detail::require_array(
      detail::require_member(result, "locations", kKind, path), kKind,
      locations_path);
  if (locations.empty())
    detail::fail_invalid(kKind,
                         locations_path.str() + " must not be empty");
  const detail::Path first_path = locations_path.index(0);
  const detail::Path loc_path = first_path.key("physicalLocation");
  const report::JsonValue& physical = detail::require_member(
      locations.front(), "physicalLocation", kKind, first_path);
  const detail::Path artifact_path = loc_path.key("artifactLocation");
  const report::JsonValue& artifact = detail::require_member(
      physical, "artifactLocation", kKind, loc_path);
  finding.uri = detail::require_string(
      detail::require_member(artifact, "uri", kKind, artifact_path), kKind,
      artifact_path.key("uri"));
  const detail::Path region_path = loc_path.key("region");
  const report::JsonValue& region =
      detail::require_member(physical, "region", kKind, loc_path);
  finding.line = detail::require_line(
      detail::require_member(region, "startLine", kKind, region_path), kKind,
      region_path.key("startLine"));
  if (const report::JsonValue* column = region.member("startColumn"))
    finding.column =
        detail::require_line(*column, kKind, region_path.key("startColumn"));

  if (const report::JsonValue* properties = result.member("properties"))
    if (const report::JsonValue* confidence = properties->member("confidence")) {
      const detail::Path properties_path = path.key("properties");
      const detail::Path confidence_path = properties_path.key("confidence");
      finding.confidence =
          detail::require_number(*confidence, kKind, confidence_path);
      if (finding.confidence < 0.0 || finding.confidence > 1.0)
        detail::fail_invalid(
            kKind, confidence_path.str() + " must be in [0, 1]");
    }
  return finding;
}

}  // namespace

SarifReport parse_sarif(std::string_view text) {
  const obs::Span span(obs::names::kCorpusParseSarif);
  const report::JsonDocument document = detail::parse_document(text, kKind);
  const report::JsonValue& doc = document.root();
  const detail::Path root;

  const std::string_view version = detail::require_string(
      detail::require_member(doc, "version", kKind, root), kKind,
      root.key("version"));
  if (version != "2.1.0")
    detail::fail_invalid(kKind, "unsupported SARIF version '" +
                                    std::string(version) +
                                    "' (reader speaks 2.1.0)");

  const detail::Path runs_path = root.key("runs");
  const report::JsonArray runs = detail::require_array(
      detail::require_member(doc, "runs", kKind, root), kKind, runs_path);
  if (runs.empty()) detail::fail_invalid(kKind, "runs must not be empty");

  SarifReport parsed;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const detail::Path run_path = runs_path.index(r);
    const detail::Path tool_path = run_path.key("tool");
    const detail::Path driver_path = tool_path.key("driver");
    const report::JsonValue& driver = detail::require_member(
        detail::require_member(runs[r], "tool", kKind, run_path), "driver",
        kKind, tool_path);
    const std::string_view name = detail::require_string(
        detail::require_member(driver, "name", kKind, driver_path), kKind,
        driver_path.key("name"));
    if (r == 0) {
      parsed.tool_name = name;
      if (const report::JsonValue* version_member = driver.member("version"))
        parsed.tool_version = detail::require_string(
            *version_member, kKind, driver_path.key("version"));
    }
    if (const report::JsonValue* rules = driver.member("rules")) {
      const detail::Path rules_path = driver_path.key("rules");
      const report::JsonArray items =
          detail::require_array(*rules, kKind, rules_path);
      for (std::size_t i = 0; i < items.size(); ++i)
        parsed.rules.push_back(parse_rule(items[i], rules_path.index(i)));
    }
    const detail::Path results_path = run_path.key("results");
    const report::JsonArray results = detail::require_array(
        detail::require_member(runs[r], "results", kKind, run_path), kKind,
        results_path);
    if (r == 0) parsed.findings.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      parsed.findings.push_back(
          parse_result(results[i], results_path.index(i)));
  }
  obs::count(obs::Counter::kCorpusFindings, parsed.findings.size());
  return parsed;
}

}  // namespace vdbench::corpus
