// Matcher tests: every clause of the ambiguity policy documented in
// corpus/matcher.h is pinned here — site identity ignores columns, records
// come out in manifest order, confidence picks duplicate winners, strays
// are counted but never scored, and unmapped rules claim kUnknownClass.
#include "corpus/matcher.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/confusion.h"
#include "corpus/manifest.h"
#include "corpus/sarif.h"
#include "stream/record.h"
#include "vdsim/vuln.h"

namespace vdbench::corpus {
namespace {

using vdsim::VulnClass;

constexpr std::uint8_t kSql =
    static_cast<std::uint8_t>(vdsim::vuln_class_index(VulnClass::kSqlInjection));
constexpr std::uint8_t kXss =
    static_cast<std::uint8_t>(vdsim::vuln_class_index(VulnClass::kXss));

TruthSite vuln_site(std::string uri, std::uint32_t line, VulnClass c) {
  TruthSite site;
  site.uri = std::move(uri);
  site.line = line;
  site.vulnerable = true;
  site.vuln_class = c;
  return site;
}

TruthSite clean_site(std::string uri, std::uint32_t line) {
  TruthSite site;
  site.uri = std::move(uri);
  site.line = line;
  return site;
}

SarifFinding finding(std::string rule, std::string uri, std::uint32_t line,
                     double confidence = -1.0, std::uint32_t column = 0) {
  SarifFinding f;
  f.rule_id = std::move(rule);
  f.level = "warning";
  f.uri = std::move(uri);
  f.line = line;
  f.column = column;
  f.confidence = confidence;
  return f;
}

// Two ecosystems, four sites, rules for SQL injection and XSS.
Manifest two_ecosystem_manifest() {
  Manifest m;
  m.name = "toy";
  m.rules["tool-sql"] = "CWE-89";
  m.rules["tool-xss"] = "CWE-79";
  m.rules["tool-odd"] = "CWE-9999";  // legal in the table, outside taxonomy
  m.ecosystems.push_back(
      {"web", {vuln_site("web.c", 10, VulnClass::kSqlInjection),
               clean_site("web.c", 20)}});
  m.ecosystems.push_back(
      {"sys", {vuln_site("sys.c", 10, VulnClass::kXss),
               clean_site("sys.c", 20)}});
  return m;
}

core::ConfusionMatrix score(const MatchResult& match) {
  core::ConfusionMatrix cm;
  for (const stream::SiteRecord& record : match.records)
    stream::accumulate(record, cm);
  return cm;
}

TEST(MatcherTest, MatchedFindingClaimsTheMappedClass) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  report.findings = {finding("tool-sql", "web.c", 10, 0.9)};
  const MatchResult match = match_findings(m, report);

  ASSERT_EQ(match.records.size(), 4u);
  EXPECT_EQ(match.records[0].truth, kSql);
  EXPECT_EQ(match.records[0].claimed, kSql);
  EXPECT_EQ(match.stats, (MatchStats{4, 1, 0, 0, 0}));

  const core::ConfusionMatrix cm = score(match);
  EXPECT_EQ(cm.tp, 1u);  // the detection
  EXPECT_EQ(cm.fn, 1u);  // the missed XSS site
  EXPECT_EQ(cm.tn, 2u);  // both clean sites silent
  EXPECT_EQ(cm.fp, 0u);
}

TEST(MatcherTest, ColumnsAreIgnoredForSiteIdentity) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  report.findings = {finding("tool-sql", "web.c", 10, 0.9, /*column=*/77)};
  const MatchResult match = match_findings(m, report);
  EXPECT_EQ(match.stats.matched, 1u);
  EXPECT_EQ(match.stats.stray, 0u);
  EXPECT_EQ(match.records[0].claimed, kSql);
}

TEST(MatcherTest, RecordsComeOutInManifestOrderRegardlessOfFindingOrder) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  // Findings arrive reversed relative to the manifest enumeration.
  report.findings = {finding("tool-xss", "sys.c", 10, 0.5),
                     finding("tool-sql", "web.c", 10, 0.5)};
  const MatchResult match = match_findings(m, report);
  ASSERT_EQ(match.records.size(), 4u);
  // (service, site) walk the manifest: web[0], web[1], sys[0], sys[1].
  EXPECT_EQ(match.records[0].service, 0u);
  EXPECT_EQ(match.records[0].site, 0u);
  EXPECT_EQ(match.records[1].service, 0u);
  EXPECT_EQ(match.records[1].site, 1u);
  EXPECT_EQ(match.records[2].service, 1u);
  EXPECT_EQ(match.records[2].site, 0u);
  EXPECT_EQ(match.records[3].service, 1u);
  EXPECT_EQ(match.records[3].site, 1u);
  EXPECT_EQ(match.records[0].claimed, kSql);
  EXPECT_EQ(match.records[2].claimed, kXss);
}

TEST(MatcherTest, StrayFindingsAreCountedButNeverScored) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  report.findings = {finding("tool-sql", "nowhere.c", 1, 0.9),
                     finding("tool-sql", "web.c", 11, 0.9),  // off-by-one line
                     finding("tool-sql", "web.c", 10, 0.9)};
  const MatchResult match = match_findings(m, report);
  EXPECT_EQ(match.stats.stray, 2u);
  EXPECT_EQ(match.stats.matched, 1u);
  // Strays contribute nothing to the confusion counts: only the four
  // enumerated sites are scored, one cell each.
  const core::ConfusionMatrix cm = score(match);
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.fp, 0u);
  EXPECT_EQ(cm.tn, 2u);
  EXPECT_EQ(cm.fn, 1u);
}

TEST(MatcherTest, HighestConfidenceWinsDuplicateClaims) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  report.findings = {finding("tool-xss", "web.c", 10, 0.3),
                     finding("tool-sql", "web.c", 10, 0.8),
                     finding("tool-xss", "web.c", 10, 0.5)};
  const MatchResult match = match_findings(m, report);
  EXPECT_EQ(match.stats.matched, 1u);
  EXPECT_EQ(match.stats.duplicates, 2u);
  EXPECT_EQ(match.records[0].claimed, kSql);  // 0.8 beat 0.3 and 0.5
}

TEST(MatcherTest, AbsentConfidenceRanksBelowAnyDeclaredValue) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  report.findings = {finding("tool-xss", "web.c", 10 /* no confidence */),
                     finding("tool-sql", "web.c", 10, 0.01)};
  const MatchResult match = match_findings(m, report);
  EXPECT_EQ(match.records[0].claimed, kSql);
  EXPECT_EQ(match.stats.duplicates, 1u);
}

TEST(MatcherTest, ConfidenceTiesGoToTheEarliestFinding) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  report.findings = {finding("tool-sql", "web.c", 10, 0.5),
                     finding("tool-xss", "web.c", 10, 0.5)};
  const MatchResult match = match_findings(m, report);
  EXPECT_EQ(match.records[0].claimed, kSql);  // document order breaks the tie

  // Two findings both without confidence tie at -1.0: earliest wins.
  report.findings = {finding("tool-xss", "web.c", 10),
                     finding("tool-sql", "web.c", 10)};
  EXPECT_EQ(match_findings(m, report).records[0].claimed, kXss);
}

TEST(MatcherTest, UnmappedRulesClaimUnknownClassAndScoreAsFalsePositives) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  // One unmapped ruleId on a vulnerable site, one rule mapping to an
  // out-of-taxonomy CWE on a clean site.
  report.findings = {finding("never-heard-of-it", "web.c", 10, 0.9),
                     finding("tool-odd", "web.c", 20, 0.9)};
  const MatchResult match = match_findings(m, report);
  EXPECT_EQ(match.stats.matched, 2u);
  EXPECT_EQ(match.stats.unknown_rule, 2u);
  EXPECT_EQ(match.records[0].claimed, kUnknownClass);
  EXPECT_EQ(match.records[1].claimed, kUnknownClass);

  // Clause 6: an unclassifiable claim is an alarm, not a detection. On the
  // vulnerable site it scores FP + FN; on the clean site FP.
  const core::ConfusionMatrix cm = score(match);
  EXPECT_EQ(cm.tp, 0u);
  EXPECT_EQ(cm.fp, 2u);
  EXPECT_EQ(cm.fn, 2u);  // web.c:10 missed + sys.c:10 silent
  EXPECT_EQ(cm.tn, 1u);  // sys.c:20
}

TEST(MatcherTest, SentinelsAreDistinct) {
  // The unknown-class sentinel must never collide with "no finding" or a
  // real class index, or scoring would silently change meaning.
  EXPECT_NE(kUnknownClass, stream::kNoFinding);
  for (const VulnClass c : vdsim::all_vuln_classes())
    EXPECT_NE(kUnknownClass, static_cast<std::uint8_t>(
                                 vdsim::vuln_class_index(c)));
}

TEST(MatcherTest, EmptyReportYieldsAllSilentRecords) {
  const Manifest m = two_ecosystem_manifest();
  const MatchResult match = match_findings(m, SarifReport{});
  EXPECT_EQ(match.stats, (MatchStats{4, 0, 0, 0, 0}));
  for (const stream::SiteRecord& record : match.records)
    EXPECT_EQ(record.claimed, stream::kNoFinding);
  const core::ConfusionMatrix cm = score(match);
  EXPECT_EQ(cm.fn, 2u);
  EXPECT_EQ(cm.tn, 2u);
}

TEST(MatcherTest, DeterministicAcrossRepeatedCalls) {
  const Manifest m = two_ecosystem_manifest();
  SarifReport report;
  report.findings = {finding("tool-sql", "web.c", 10, 0.8),
                     finding("tool-xss", "sys.c", 10, 0.7),
                     finding("tool-sql", "stray.c", 3, 0.2)};
  const MatchResult first = match_findings(m, report);
  const MatchResult second = match_findings(m, report);
  EXPECT_EQ(first.records, second.records);
  EXPECT_EQ(first.stats, second.stats);
}

TEST(MatcherTest, InMemoryRepeatedSiteLeavesTheFirstToBeMatched) {
  // parse_manifest rejects a repeated (uri, line); a manifest built in
  // memory can still hold one. Findings join the first of the two, and
  // every later site keeps its own ordinal.
  Manifest m;
  m.rules["tool-sql"] = "CWE-89";
  m.ecosystems.push_back({"web", {vuln_site("a.c", 1, VulnClass::kSqlInjection),
                                  vuln_site("a.c", 1, VulnClass::kXss),
                                  clean_site("b.c", 2)}});
  SarifReport report;
  report.findings = {finding("tool-sql", "a.c", 1),
                     finding("tool-sql", "b.c", 2)};
  const MatchResult match = match_findings(m, report);
  ASSERT_EQ(match.records.size(), 3u);
  EXPECT_EQ(match.records[0].claimed, kSql);
  EXPECT_EQ(match.records[1].claimed, stream::kNoFinding);
  EXPECT_EQ(match.records[2].claimed, kSql);
  EXPECT_EQ(match.stats.matched, 2u);
}

TEST(MatcherTest, EscapedSurrogatePairUriMatchesTheRawUtf8Site) {
  // Third-party SARIF writers (Python's json.dumps, for one) escape a
  // character outside the BMP as a UTF-16 surrogate pair; the manifest
  // holds the same uri as raw UTF-8 (U+1F600 is F0 9F 98 80).
  const Manifest m = parse_manifest(
      "{\"schema\":1,\"name\":\"n\",\"rules\":{\"r\":\"CWE-89\"},"
      "\"ecosystems\":[{\"name\":\"e\",\"sites\":[{\"uri\":"
      "\"src/\xF0\x9F\x98\x80.c\",\"line\":3,\"vulnerable\":true,"
      "\"cwe\":\"CWE-89\"}]}]}");
  const SarifReport report = parse_sarif(
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t"}},)"
      R"("results":[{"ruleId":"r","locations":[{"physicalLocation":)"
      R"({"artifactLocation":{"uri":"src/\ud83d\ude00.c"},)"
      R"("region":{"startLine":3}}}]}]}]})");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].uri, m.ecosystems[0].sites[0].uri);
  const MatchResult match = match_findings(m, report);
  EXPECT_EQ(match.stats.matched, 1u);
  EXPECT_EQ(match.stats.stray, 0u);
  ASSERT_EQ(match.records.size(), 1u);
  EXPECT_EQ(match.records[0].claimed, kSql);
}

}  // namespace
}  // namespace vdbench::corpus
