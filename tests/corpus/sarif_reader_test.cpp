// SARIF reader tests: the vdlint golden report parses field-for-field, the
// documented defaults apply when optional members are omitted, and every
// structural or semantic violation raises a typed CorpusError — never a
// silent short parse.
#include "corpus/sarif.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "corpus/error.h"

namespace vdbench::corpus {
namespace {

namespace fs = std::filesystem;

const fs::path kRepoRoot{VDBENCH_SOURCE_DIR};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

// Wrap a results[] body in the minimal valid SARIF envelope.
std::string with_results(const std::string& results) {
  return R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t"}},)"
         R"("results":[)" +
         results + "]}]}";
}

constexpr const char* kMinimalResult =
    R"({"ruleId":"r1","locations":[{"physicalLocation":)"
    R"({"artifactLocation":{"uri":"a.c"},"region":{"startLine":3}}}]})";

TEST(SarifReaderTest, ParsesTheVdlintGoldenReport) {
  const std::string text =
      slurp(kRepoRoot / "tests" / "lint" / "expected_fixtures.sarif");
  ASSERT_FALSE(text.empty());
  const SarifReport report = parse_sarif(text);
  EXPECT_EQ(report.tool_name, "vdlint");
  EXPECT_EQ(report.tool_version, "1.0.0");
  EXPECT_EQ(report.rules.size(), 15u);
  ASSERT_EQ(report.findings.size(), 15u);

  const SarifFinding& first = report.findings.front();
  EXPECT_EQ(first.rule_id, "vdl-env-prefix");
  EXPECT_EQ(first.level, "error");
  EXPECT_EQ(first.uri, "tests/lint/fixtures/env_prefix_fire.cpp");
  EXPECT_EQ(first.line, 4u);
  EXPECT_EQ(first.column, 46u);
  EXPECT_EQ(first.confidence, -1.0);  // vdlint reports no confidence

  // The rule inventory round-trips id + description + level.
  EXPECT_EQ(report.rules.front().id, "vdl-rand");
  EXPECT_EQ(report.rules.front().short_description,
            "std::rand/srand banned; use seeded stats::Rng");
  EXPECT_EQ(report.rules.front().level, "error");
}

TEST(SarifReaderTest, AppliesDocumentedDefaultsForOptionalMembers) {
  const SarifReport report = parse_sarif(with_results(kMinimalResult));
  EXPECT_EQ(report.tool_name, "t");
  EXPECT_EQ(report.tool_version, "");
  EXPECT_TRUE(report.rules.empty());
  ASSERT_EQ(report.findings.size(), 1u);
  const SarifFinding& f = report.findings.front();
  EXPECT_EQ(f.level, "warning");  // the SARIF default
  EXPECT_EQ(f.message, "");
  EXPECT_EQ(f.column, 0u);
  EXPECT_EQ(f.confidence, -1.0);
}

TEST(SarifReaderTest, ParsesConfidenceLevelAndMessageWhenPresent) {
  const std::string result =
      R"({"ruleId":"r1","level":"note","message":{"text":"hit"},)"
      R"("locations":[{"physicalLocation":{"artifactLocation":)"
      R"({"uri":"a.c"},"region":{"startLine":3,"startColumn":9}}}],)"
      R"("properties":{"confidence":0.625}})";
  const SarifReport report = parse_sarif(with_results(result));
  ASSERT_EQ(report.findings.size(), 1u);
  const SarifFinding& f = report.findings.front();
  EXPECT_EQ(f.level, "note");
  EXPECT_EQ(f.message, "hit");
  EXPECT_EQ(f.column, 9u);
  EXPECT_DOUBLE_EQ(f.confidence, 0.625);
}

TEST(SarifReaderTest, IgnoresUnknownMembersEverywhere) {
  const std::string text =
      R"({"$schema":"x","version":"2.1.0","extra":[1,2],"runs":[{)"
      R"("tool":{"driver":{"name":"t","extra":true}},"columnKind":"utf16",)"
      R"("results":[)" +
      std::string(kMinimalResult) + "]}]}";
  const SarifReport report = parse_sarif(text);
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(SarifReaderTest, ConcatenatesMultiRunDocumentsFirstRunNamesTheTool) {
  const std::string text =
      R"({"version":"2.1.0","runs":[)"
      R"({"tool":{"driver":{"name":"alpha","version":"9",)"
      R"("rules":[{"id":"ra"}]}},"results":[)" +
      std::string(kMinimalResult) +
      R"(]},{"tool":{"driver":{"name":"beta","rules":[{"id":"rb"}]}},)"
      R"("results":[)" +
      std::string(kMinimalResult) + "]}]}";
  const SarifReport report = parse_sarif(text);
  EXPECT_EQ(report.tool_name, "alpha");
  EXPECT_EQ(report.tool_version, "9");
  ASSERT_EQ(report.rules.size(), 2u);
  EXPECT_EQ(report.rules[0].id, "ra");
  EXPECT_EQ(report.rules[1].id, "rb");
  EXPECT_EQ(report.findings.size(), 2u);
}

TEST(SarifReaderTest, RejectsUnsupportedVersions) {
  try {
    (void)parse_sarif(R"({"version":"2.0.0","runs":[]})");
    FAIL() << "2.0.0 accepted";
  } catch (const CorpusError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported SARIF version"),
              std::string::npos)
        << e.what();
  }
}

TEST(SarifReaderTest, RejectsNonObjectRootsAndEmptyRuns) {
  EXPECT_THROW(parse_sarif("[]"), CorpusError);
  EXPECT_THROW(parse_sarif("42"), CorpusError);
  EXPECT_THROW(parse_sarif(R"({"version":"2.1.0","runs":[]})"), CorpusError);
  EXPECT_THROW(parse_sarif(R"({"runs":[]})"), CorpusError);  // no version
  EXPECT_THROW(parse_sarif(R"({"version":"2.1.0"})"), CorpusError);
}

TEST(SarifReaderTest, RejectsResultsMissingRequiredMembers) {
  // Each mutation drops one required member; all must be loud.
  const char* broken[] = {
      // no ruleId
      R"({"locations":[{"physicalLocation":{"artifactLocation":)"
      R"({"uri":"a.c"},"region":{"startLine":3}}}]})",
      // no locations
      R"({"ruleId":"r1"})",
      // empty locations
      R"({"ruleId":"r1","locations":[]})",
      // no physicalLocation
      R"({"ruleId":"r1","locations":[{}]})",
      // no artifactLocation.uri
      R"({"ruleId":"r1","locations":[{"physicalLocation":)"
      R"({"artifactLocation":{},"region":{"startLine":3}}}]})",
      // no region.startLine
      R"({"ruleId":"r1","locations":[{"physicalLocation":)"
      R"({"artifactLocation":{"uri":"a.c"},"region":{}}}]})",
  };
  for (const char* result : broken)
    EXPECT_THROW(parse_sarif(with_results(result)), CorpusError) << result;
}

TEST(SarifReaderTest, RejectsIllTypedAndOutOfRangeValues) {
  // startLine must be a positive integer.
  EXPECT_THROW(parse_sarif(with_results(
                   R"({"ruleId":"r1","locations":[{"physicalLocation":)"
                   R"({"artifactLocation":{"uri":"a.c"},)"
                   R"("region":{"startLine":0}}}]})")),
               CorpusError);
  EXPECT_THROW(parse_sarif(with_results(
                   R"({"ruleId":"r1","locations":[{"physicalLocation":)"
                   R"({"artifactLocation":{"uri":"a.c"},)"
                   R"("region":{"startLine":2.5}}}]})")),
               CorpusError);
  // ruleId must be a string.
  EXPECT_THROW(parse_sarif(with_results(
                   R"({"ruleId":7,"locations":[{"physicalLocation":)"
                   R"({"artifactLocation":{"uri":"a.c"},)"
                   R"("region":{"startLine":3}}}]})")),
               CorpusError);
  // confidence outside [0, 1] in either direction.
  for (const char* confidence : {"-0.1", "1.5"}) {
    const std::string result =
        std::string(R"({"ruleId":"r1","locations":[{"physicalLocation":)"
                    R"({"artifactLocation":{"uri":"a.c"},)"
                    R"("region":{"startLine":3}}}],)"
                    R"("properties":{"confidence":)") +
        confidence + "}}";
    try {
      (void)parse_sarif(with_results(result));
      FAIL() << "confidence " << confidence << " accepted";
    } catch (const CorpusError& e) {
      EXPECT_NE(std::string(e.what()).find("must be in [0, 1]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SarifReaderTest, StructurallyDamagedDocumentsCarryTheByteOffset) {
  const std::string good = with_results(kMinimalResult);
  const std::string torn = good.substr(0, good.size() / 2);
  try {
    (void)parse_sarif(torn);
    FAIL() << "torn document accepted";
  } catch (const CorpusError& e) {
    EXPECT_GT(e.offset, 0u);
    EXPECT_LE(e.offset, torn.size());
    const std::string what = e.what();
    EXPECT_NE(what.find("SARIF report corrupt"), std::string::npos) << what;
    EXPECT_NE(what.find("at offset"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vdbench::corpus
