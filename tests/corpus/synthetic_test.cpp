// Synthetic corpus generator tests: byte-determinism (the property E19's
// cacheability rests on), render↔parse round trips, global (uri, line)
// uniqueness, and statistical sanity of the generated ground truth.
#include "corpus/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "corpus/manifest.h"
#include "corpus/sarif.h"
#include "experiments.h"
#include "vdsim/tool.h"
#include "vdsim/vuln.h"

namespace vdbench::corpus {
namespace {

SyntheticCorpusSpec small_spec() {
  SyntheticCorpusSpec spec;
  spec.name = "small";
  spec.seed = 42;
  spec.ecosystems.push_back({"one", 200, 0.2, {1, 1, 1, 1, 1, 1, 1, 1}});
  spec.ecosystems.push_back({"two", 100, 0.05, {0, 0, 0, 0, 4, 3, 1, 0}});
  return spec;
}

TEST(SyntheticCorpusTest, ManifestGenerationIsByteDeterministic) {
  const std::string a = render_manifest(synthesize_manifest(small_spec()));
  const std::string b = render_manifest(synthesize_manifest(small_spec()));
  EXPECT_EQ(a, b);

  // A different seed produces a different ground truth.
  SyntheticCorpusSpec reseeded = small_spec();
  reseeded.seed = 43;
  EXPECT_NE(render_manifest(synthesize_manifest(reseeded)), a);
}

TEST(SyntheticCorpusTest, ReportGenerationIsByteDeterministicPerTool) {
  const SyntheticCorpusSpec spec = small_spec();
  const Manifest manifest = synthesize_manifest(spec);
  const vdsim::ToolProfile tool = vdsim::builtin_tools().front();
  const std::string a =
      render_sarif_report(synthesize_report(spec, manifest, tool));
  const std::string b =
      render_sarif_report(synthesize_report(spec, manifest, tool));
  EXPECT_EQ(a, b);

  // Different tools draw independent streams: reports differ.
  const vdsim::ToolProfile other = vdsim::builtin_tools().back();
  EXPECT_NE(render_sarif_report(synthesize_report(spec, manifest, other)), a);
}

TEST(SyntheticCorpusTest, RenderedManifestRoundTripsThroughTheReader) {
  const Manifest manifest = synthesize_manifest(small_spec());
  const std::string rendered = render_manifest(manifest);
  const Manifest reparsed = parse_manifest(rendered);
  EXPECT_EQ(reparsed.name, manifest.name);
  EXPECT_EQ(reparsed.rules, manifest.rules);
  ASSERT_EQ(reparsed.ecosystems.size(), manifest.ecosystems.size());
  for (std::size_t e = 0; e < manifest.ecosystems.size(); ++e) {
    EXPECT_EQ(reparsed.ecosystems[e].name, manifest.ecosystems[e].name);
    const auto& in = manifest.ecosystems[e].sites;
    const auto& out = reparsed.ecosystems[e].sites;
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t s = 0; s < in.size(); ++s) {
      EXPECT_EQ(out[s].uri, in[s].uri);
      EXPECT_EQ(out[s].line, in[s].line);
      EXPECT_EQ(out[s].vulnerable, in[s].vulnerable);
      if (in[s].vulnerable) {
        EXPECT_EQ(out[s].vuln_class, in[s].vuln_class);
      }
      // The writer prints doubles with 12 significant digits, so the
      // reparsed difficulty agrees to that precision, not bit-for-bit.
      EXPECT_NEAR(out[s].difficulty, in[s].difficulty, 1e-9);
    }
  }
  // Canonical form: render(parse(render)) == render.
  EXPECT_EQ(render_manifest(reparsed), rendered);
}

TEST(SyntheticCorpusTest, RenderedReportRoundTripsThroughTheReader) {
  const SyntheticCorpusSpec spec = small_spec();
  const Manifest manifest = synthesize_manifest(spec);
  const SarifReport report =
      synthesize_report(spec, manifest, vdsim::builtin_tools().front());
  ASSERT_FALSE(report.findings.empty());
  const std::string rendered = render_sarif_report(report);
  const SarifReport reparsed = parse_sarif(rendered);
  EXPECT_EQ(reparsed.tool_name, report.tool_name);
  EXPECT_EQ(reparsed.tool_version, report.tool_version);
  EXPECT_EQ(reparsed.rules, report.rules);
  ASSERT_EQ(reparsed.findings.size(), report.findings.size());
  for (std::size_t f = 0; f < report.findings.size(); ++f) {
    const SarifFinding& in = report.findings[f];
    const SarifFinding& out = reparsed.findings[f];
    EXPECT_EQ(out.rule_id, in.rule_id);
    EXPECT_EQ(out.level, in.level);
    EXPECT_EQ(out.message, in.message);
    EXPECT_EQ(out.uri, in.uri);
    EXPECT_EQ(out.line, in.line);
    EXPECT_EQ(out.column, in.column);
    // Confidence survives to the writer's 12 significant digits.
    EXPECT_NEAR(out.confidence, in.confidence, 1e-9);
  }
  EXPECT_EQ(render_sarif_report(reparsed), rendered);
}

TEST(SyntheticCorpusTest, RulesTableCoversTheWholeTaxonomy) {
  const Manifest manifest = synthesize_manifest(small_spec());
  ASSERT_EQ(manifest.rules.size(), vdsim::kVulnClassCount);
  for (const vdsim::VulnClass c : vdsim::all_vuln_classes()) {
    const auto it = manifest.rules.find(synthetic_rule_id(c));
    ASSERT_NE(it, manifest.rules.end()) << synthetic_rule_id(c);
    EXPECT_EQ(it->second, vdsim::vuln_class_cwe(c));
    EXPECT_EQ(vuln_class_from_cwe(it->second), c);
  }
}

TEST(SyntheticCorpusTest, RealizedPrevalenceTracksTheSpec) {
  // 200 Bernoulli(0.2) draws: realized prevalence within 3 sigma.
  const Manifest manifest = synthesize_manifest(small_spec());
  const Ecosystem& eco = manifest.ecosystems[0];
  std::size_t vulnerable = 0;
  for (const TruthSite& site : eco.sites)
    if (site.vulnerable) ++vulnerable;
  const double realized =
      static_cast<double>(vulnerable) / static_cast<double>(eco.sites.size());
  EXPECT_NEAR(realized, 0.2, 3.0 * std::sqrt(0.2 * 0.8 / 200.0));

  // Difficulty values stay in the documented [0.1, 0.9] grid.
  for (const TruthSite& site : eco.sites) {
    EXPECT_GE(site.difficulty, 0.1 - 1e-12);
    EXPECT_LE(site.difficulty, 0.9 + 1e-12);
  }
}

TEST(SyntheticCorpusTest, E19CorporaHaveGloballyUniqueSites) {
  const std::vector<SyntheticCorpusSpec> specs = bench::e19_corpus_specs();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "webapps");
  EXPECT_EQ(specs[1].name, "systems");

  // (uri, line) never collides across ecosystems OR corpora, so external
  // and synthetic corpora can coexist in one scoring universe.
  std::set<std::pair<std::string, std::uint32_t>> seen;
  for (const SyntheticCorpusSpec& spec : specs) {
    ASSERT_EQ(spec.ecosystems.size(), 2u) << spec.name;
    const Manifest manifest = synthesize_manifest(spec);
    // The rendered manifest re-parses: duplicate sites would be rejected.
    EXPECT_EQ(parse_manifest(render_manifest(manifest)).site_count(),
              manifest.site_count());
    for (const Ecosystem& eco : manifest.ecosystems)
      for (const TruthSite& site : eco.sites)
        EXPECT_TRUE(seen.emplace(site.uri, site.line).second)
            << site.uri << ":" << site.line;
  }
}

TEST(SyntheticCorpusTest, SyntheticRuleIdsEmbedTheCwe) {
  EXPECT_EQ(synthetic_rule_id(vdsim::VulnClass::kSqlInjection),
            "synth-CWE-89");
  EXPECT_EQ(synthetic_rule_id(vdsim::VulnClass::kBufferOverflow),
            "synth-CWE-120");
}

}  // namespace
}  // namespace vdbench::corpus
