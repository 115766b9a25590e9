// Ground-truth manifest tests: the documented schema parses, the CWE
// taxonomy mapping is total over vdsim and empty outside it, and every
// violation — schema drift, missing members, out-of-range values, duplicate
// sites — is rejected with a typed CorpusError.
#include "corpus/manifest.h"

#include <gtest/gtest.h>

#include <string>

#include "corpus/error.h"
#include "vdsim/vuln.h"

namespace vdbench::corpus {
namespace {

// The example from the header comment, condensed.
constexpr const char* kGoodManifest =
    R"({"schema":1,"name":"lint-fixtures",)"
    R"("rules":{"vdl-rand":"CWE-327","vdl-sql":"CWE-89"},)"
    R"("ecosystems":[{"name":"cpp-fixtures","sites":[)"
    R"({"uri":"a.cpp","line":5,"cwe":"CWE-327","vulnerable":true,)"
    R"("difficulty":0.4},)"
    R"({"uri":"a.cpp","line":9,"vulnerable":false}]}]})";

TEST(ManifestTest, ParsesTheDocumentedSchema) {
  const Manifest m = parse_manifest(kGoodManifest);
  EXPECT_EQ(m.name, "lint-fixtures");
  ASSERT_EQ(m.ecosystems.size(), 1u);
  EXPECT_EQ(m.ecosystems[0].name, "cpp-fixtures");
  ASSERT_EQ(m.ecosystems[0].sites.size(), 2u);
  EXPECT_EQ(m.site_count(), 2u);

  const TruthSite& vuln = m.ecosystems[0].sites[0];
  EXPECT_EQ(vuln.uri, "a.cpp");
  EXPECT_EQ(vuln.line, 5u);
  EXPECT_TRUE(vuln.vulnerable);
  EXPECT_EQ(vuln.vuln_class, vdsim::VulnClass::kWeakCrypto);
  EXPECT_DOUBLE_EQ(vuln.difficulty, 0.4);

  const TruthSite& clean = m.ecosystems[0].sites[1];
  EXPECT_FALSE(clean.vulnerable);
  EXPECT_DOUBLE_EQ(clean.difficulty, 0.5);  // the documented default

  ASSERT_EQ(m.rules.size(), 2u);
  EXPECT_EQ(m.rules.at("vdl-rand"), "CWE-327");
  EXPECT_EQ(m.rules.at("vdl-sql"), "CWE-89");
}

TEST(ManifestTest, RulesTableIsOptional) {
  const Manifest m = parse_manifest(
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[)"
      R"({"uri":"a","line":1,"vulnerable":false}]}]})");
  EXPECT_TRUE(m.rules.empty());
}

TEST(ManifestTest, VulnClassFromCweIsTotalOverTheTaxonomy) {
  for (const vdsim::VulnClass c : vdsim::all_vuln_classes()) {
    const auto mapped = vuln_class_from_cwe(vdsim::vuln_class_cwe(c));
    ASSERT_TRUE(mapped.has_value()) << vdsim::vuln_class_cwe(c);
    EXPECT_EQ(*mapped, c);
  }
  EXPECT_FALSE(vuln_class_from_cwe("CWE-9999").has_value());
  EXPECT_FALSE(vuln_class_from_cwe("").has_value());
  EXPECT_FALSE(vuln_class_from_cwe("cwe-89").has_value());  // case-exact
}

TEST(ManifestTest, RejectsSchemaDrift) {
  try {
    (void)parse_manifest(R"({"schema":2,"name":"n","ecosystems":[)"
                         R"({"name":"e","sites":[)"
                         R"({"uri":"a","line":1,"vulnerable":false}]}]})");
    FAIL() << "schema 2 accepted";
  } catch (const CorpusError& e) {
    EXPECT_NE(std::string(e.what()).find("not supported"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_manifest(R"({"name":"n","ecosystems":[]})"), CorpusError);
}

TEST(ManifestTest, RejectsMissingAndIllTypedMembers) {
  const char* broken[] = {
      R"({"schema":1,"ecosystems":[]})",  // no name
      R"({"schema":1,"name":"n"})",       // no ecosystems
      R"({"schema":1,"name":"n","ecosystems":[]})",  // empty ecosystems
      R"({"schema":1,"name":"n","ecosystems":[{"sites":[]}]})",  // no eco name
      // empty sites
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[]}]})",
      // site missing uri / line / vulnerable
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[)"
      R"({"line":1,"vulnerable":false}]}]})",
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[)"
      R"({"uri":"a","vulnerable":false}]}]})",
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[)"
      R"({"uri":"a","line":1}]}]})",
      // vulnerable must be a bool
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[)"
      R"({"uri":"a","line":1,"vulnerable":1}]}]})",
      // line must be a positive integer
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[)"
      R"({"uri":"a","line":0,"vulnerable":false}]}]})",
      // rules must be an object
      R"({"schema":1,"name":"n","rules":[],"ecosystems":[)"
      R"({"name":"e","sites":[{"uri":"a","line":1,"vulnerable":false}]}]})",
  };
  for (const char* text : broken)
    EXPECT_THROW(parse_manifest(text), CorpusError) << text;
}

TEST(ManifestTest, VulnerableSitesRequireAnInTaxonomyCwe) {
  // Missing cwe on a vulnerable site.
  EXPECT_THROW(
      parse_manifest(R"({"schema":1,"name":"n","ecosystems":[)"
                     R"({"name":"e","sites":[)"
                     R"({"uri":"a","line":1,"vulnerable":true}]}]})"),
      CorpusError);
  // A CWE outside the vdsim taxonomy cannot label ground truth.
  try {
    (void)parse_manifest(R"({"schema":1,"name":"n","ecosystems":[)"
                         R"({"name":"e","sites":[{"uri":"a","line":1,)"
                         R"("cwe":"CWE-9999","vulnerable":true}]}]})");
    FAIL() << "unknown cwe accepted";
  } catch (const CorpusError& e) {
    EXPECT_NE(std::string(e.what()).find("outside the taxonomy"),
              std::string::npos)
        << e.what();
  }
  // A clean site may omit the cwe entirely — and an unknown cwe member on a
  // clean site is simply never consulted.
  EXPECT_EQ(parse_manifest(
                R"({"schema":1,"name":"n","ecosystems":[{"name":"e",)"
                R"("sites":[{"uri":"a","line":1,"vulnerable":false}]}]})")
                .site_count(),
            1u);
}

TEST(ManifestTest, RejectsOutOfRangeDifficulty) {
  for (const char* difficulty : {"-0.1", "1.01"}) {
    const std::string text =
        std::string(R"({"schema":1,"name":"n","ecosystems":[{"name":"e",)"
                    R"("sites":[{"uri":"a","line":1,"vulnerable":false,)"
                    R"("difficulty":)") +
        difficulty + "}]}]}";
    EXPECT_THROW(parse_manifest(text), CorpusError) << text;
  }
}

TEST(ManifestTest, RejectsDuplicateSitesAcrossEcosystems) {
  // Same (uri, line) in two different ecosystems: two truths for one
  // location cannot be scored.
  try {
    (void)parse_manifest(R"({"schema":1,"name":"n","ecosystems":[)"
                         R"({"name":"e1","sites":[)"
                         R"({"uri":"a","line":7,"vulnerable":false}]},)"
                         R"({"name":"e2","sites":[)"
                         R"({"uri":"a","line":7,"vulnerable":false}]}]})");
    FAIL() << "duplicate site accepted";
  } catch (const CorpusError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate site"), std::string::npos)
        << e.what();
  }
  // Same uri at a different line is a different site: accepted.
  EXPECT_EQ(parse_manifest(
                R"({"schema":1,"name":"n","ecosystems":[)"
                R"({"name":"e1","sites":[)"
                R"({"uri":"a","line":7,"vulnerable":false},)"
                R"({"uri":"a","line":8,"vulnerable":false}]}]})")
                .site_count(),
            2u);
}

TEST(ManifestTest, StructuralDamageCarriesTheByteOffset) {
  const std::string good = kGoodManifest;
  const std::string torn = good.substr(0, good.size() - 10);
  try {
    (void)parse_manifest(torn);
    FAIL() << "torn manifest accepted";
  } catch (const CorpusError& e) {
    EXPECT_GT(e.offset, 0u);
    EXPECT_LE(e.offset, torn.size());
    const std::string what = e.what();
    EXPECT_NE(what.find("ground-truth manifest corrupt"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace vdbench::corpus
