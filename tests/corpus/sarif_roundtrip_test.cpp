// Writer↔reader round trip: vdlint's --sarif writer (src/lint/output.h) and
// the corpus SARIF reader (src/corpus/sarif.h) are two sides of one format.
// Running the real analyzer over the checked-in fixtures, rendering SARIF,
// and parsing it back must reproduce every finding and rule field-for-field
// — and the corpus renderer closes the loop in the other direction.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/sarif.h"
#include "corpus/synthetic.h"
#include "lint/analyzer.h"
#include "lint/output.h"
#include "lint/rules.h"

namespace vdbench::corpus {
namespace {

namespace fs = std::filesystem;

const fs::path kRepoRoot{VDBENCH_SOURCE_DIR};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

// Analyze the lint fixtures exactly as the golden test does.
std::vector<lint::Finding> fixture_findings(const lint::RuleRegistry& registry) {
  const std::vector<lint::SourceFile> files =
      lint::collect_files(kRepoRoot, {"tests/lint/fixtures"});
  std::vector<lint::Finding> findings;
  for (const lint::SourceFile& file : files) {
    std::vector<lint::Finding> f =
        lint::analyze_file(file.path, file.display, registry);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  return findings;
}

TEST(SarifRoundTripTest, VdlintWriterOutputParsesFieldForField) {
  const lint::RuleRegistry registry = lint::RuleRegistry::default_rules();
  const std::vector<lint::Finding> findings = fixture_findings(registry);
  ASSERT_FALSE(findings.empty());

  const SarifReport report =
      parse_sarif(lint::render_sarif(findings, registry));
  EXPECT_EQ(report.tool_name, "vdlint");
  EXPECT_EQ(report.tool_version, "1.0.0");

  // Rule inventory: id, summary and severity survive the trip.
  ASSERT_EQ(report.rules.size(), registry.rules().size());
  for (std::size_t i = 0; i < report.rules.size(); ++i) {
    const lint::LintRule& rule = registry.rules()[i];
    EXPECT_EQ(report.rules[i].id, rule.id);
    EXPECT_EQ(report.rules[i].short_description, rule.summary);
    EXPECT_EQ(report.rules[i].level, lint::severity_name(rule.severity));
  }

  // Findings: every field the writer emits comes back identically.
  ASSERT_EQ(report.findings.size(), findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const lint::Finding& written = findings[i];
    const SarifFinding& parsed = report.findings[i];
    EXPECT_EQ(parsed.rule_id, written.rule) << i;
    EXPECT_EQ(parsed.level, lint::severity_name(written.severity)) << i;
    EXPECT_EQ(parsed.message, written.message) << i;
    EXPECT_EQ(parsed.uri, written.file) << i;
    EXPECT_EQ(parsed.line, written.line) << i;
    EXPECT_EQ(parsed.column, written.column) << i;
    EXPECT_EQ(parsed.confidence, -1.0) << i;  // vdlint reports none
  }
}

TEST(SarifRoundTripTest, GoldenFileAndFreshRenderParseIdentically) {
  // The checked-in golden (with its trailing newline) and a fresh render
  // must produce the same parsed report — the file on disk carries no
  // information the writer does not.
  const lint::RuleRegistry registry = lint::RuleRegistry::default_rules();
  const SarifReport golden = parse_sarif(
      slurp(kRepoRoot / "tests" / "lint" / "expected_fixtures.sarif"));
  const SarifReport fresh = parse_sarif(
      lint::render_sarif(fixture_findings(registry), registry));
  EXPECT_EQ(golden.tool_name, fresh.tool_name);
  EXPECT_EQ(golden.rules, fresh.rules);
  EXPECT_EQ(golden.findings, fresh.findings);
}

TEST(SarifRoundTripTest, CorpusRendererClosesTheLoop) {
  // parse → render → parse is the identity on the corpus renderer too,
  // including rules without descriptions and findings without columns.
  const lint::RuleRegistry registry = lint::RuleRegistry::default_rules();
  const SarifReport first = parse_sarif(
      lint::render_sarif(fixture_findings(registry), registry));
  const std::string rendered = render_sarif_report(first);
  const SarifReport second = parse_sarif(rendered);
  EXPECT_EQ(second.tool_name, first.tool_name);
  EXPECT_EQ(second.tool_version, first.tool_version);
  EXPECT_EQ(second.rules, first.rules);
  EXPECT_EQ(second.findings, first.findings);
  // And the render itself is canonical: render(parse(render(x))) == render(x).
  EXPECT_EQ(render_sarif_report(second), rendered);
}

}  // namespace
}  // namespace vdbench::corpus
