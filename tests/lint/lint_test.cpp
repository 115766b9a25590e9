// vdlint test suite: scanner behavior, suppression semantics, every rule
// proven to fire on its checked-in fixture and stay quiet on the clean
// twin, the SARIF golden, and the self-scan gate (the repo's own sources
// lint clean — the same invariant CI's lint-self job enforces).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "experiments.h"
#include "lint/analyzer.h"
#include "lint/names.h"
#include "lint/output.h"
#include "lint/rules.h"
#include "lint/scanner.h"

namespace vdbench::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kRepoRoot{VDBENCH_SOURCE_DIR};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

// --- scanner -------------------------------------------------------------

TEST(CppScannerTest, TokenizesIdentifiersPunctsAndCombinedOperators) {
  const std::vector<CppToken> tokens = scan_cpp("a::b->c(d);");
  ASSERT_EQ(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "::");
  EXPECT_EQ(tokens[1].type, CppTokenType::kPunct);
  EXPECT_EQ(tokens[3].text, "->");
  EXPECT_EQ(tokens[9].type, CppTokenType::kEndOfFile);
}

TEST(CppScannerTest, CountsCrlfAndLfLinesIdentically) {
  const std::vector<CppToken> lf = scan_cpp("one\ntwo\nthree");
  const std::vector<CppToken> crlf = scan_cpp("one\r\ntwo\r\nthree");
  ASSERT_EQ(lf.size(), crlf.size());
  for (std::size_t i = 0; i < lf.size(); ++i) {
    EXPECT_EQ(lf[i].line, crlf[i].line) << "token " << i;
    EXPECT_EQ(lf[i].text, crlf[i].text) << "token " << i;
  }
  EXPECT_EQ(lf[2].line, 3u);
}

TEST(CppScannerTest, KeepsCommentsAndClassifiesDirectives) {
  const std::vector<CppToken> tokens =
      scan_cpp("#include \"core/metrics.h\"\n// note\nint x; /* block */");
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].type, CppTokenType::kDirective);
  EXPECT_EQ(tokens[0].text, "include \"core/metrics.h\"");
  EXPECT_EQ(tokens[1].type, CppTokenType::kComment);
  EXPECT_EQ(tokens[1].text, "// note");
  EXPECT_EQ(tokens.back().type, CppTokenType::kEndOfFile);
}

TEST(CppScannerTest, HashInExpressionContextIsNotADirective) {
  // '#' only opens a directive at the start of a line; mid-line it is
  // ordinary punctuation (stringize in macro bodies).
  const std::vector<CppToken> tokens = scan_cpp("int a; #oops");
  bool saw_directive = false;
  for (const CppToken& token : tokens)
    saw_directive = saw_directive || token.type == CppTokenType::kDirective;
  EXPECT_FALSE(saw_directive);
}

TEST(CppScannerTest, RawStringsAndEscapesScanWithoutConfusion) {
  const std::vector<CppToken> tokens =
      scan_cpp("auto a = R\"(no \" escape)\"; auto b = \"q\\\"r\";");
  std::vector<std::string> strings;
  for (const CppToken& token : tokens)
    if (token.type == CppTokenType::kString) strings.push_back(token.text);
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "no \" escape");
  EXPECT_EQ(strings[1], "q\\\"r");
}

TEST(CppScannerTest, UnterminatedLiteralsAndCommentsEndAtEofWithoutThrow) {
  EXPECT_EQ(scan_cpp("auto s = \"never closed").back().type,
            CppTokenType::kEndOfFile);
  EXPECT_EQ(scan_cpp("/* runs off the end").back().type,
            CppTokenType::kEndOfFile);
  EXPECT_EQ(scan_cpp("auto c = 'x").back().type, CppTokenType::kEndOfFile);
  EXPECT_EQ(scan_cpp("auto r = R\"(open forever").back().type,
            CppTokenType::kEndOfFile);
}

// --- name tables ---------------------------------------------------------

TEST(NameTablesTest, ParsesTheThreeDefiningHeaders) {
  const NameTables tables = load_name_tables(kRepoRoot);
  EXPECT_TRUE(tables.span_names.contains("driver.experiment"));
  EXPECT_TRUE(tables.span_names.contains("fault.fire"));
  EXPECT_GE(tables.span_names.size(), 19u);
  EXPECT_TRUE(tables.fault_points.contains("cache.read"));
  EXPECT_TRUE(tables.fault_points.contains("stream.consume"));
  EXPECT_TRUE(tables.fault_points.contains("net.read"));
  EXPECT_TRUE(tables.fault_points.contains("net.frame"));
  EXPECT_TRUE(tables.fault_points.contains("corpus.read"));
  EXPECT_EQ(tables.fault_points.size(), 12u);
  // Compare against the compiled tables: the runtime parse of
  // bench/experiments.h must find exactly the names kAllNames and
  // kAllPrefixes list, so a stage constant missing from them fails here.
  EXPECT_EQ(tables.stage_names,
            std::set<std::string>(std::begin(bench::stage::kAllNames),
                                  std::end(bench::stage::kAllNames)));
  EXPECT_EQ(tables.stage_prefixes,
            std::vector<std::string>(std::begin(bench::stage::kAllPrefixes),
                                     std::end(bench::stage::kAllPrefixes)));
}

TEST(NameTablesTest, MissingRootIsAHardError) {
  EXPECT_THROW(load_name_tables(kRepoRoot / "no-such-dir"),
               std::runtime_error);
}

// --- rule registry -------------------------------------------------------

TEST(RuleRegistryTest, DefaultRulesAreUniqueAndAtLeastTen) {
  const RuleRegistry registry = RuleRegistry::default_rules();
  EXPECT_GE(registry.rules().size(), 10u);
  EXPECT_NE(registry.find("vdl-rand"), nullptr);
  EXPECT_NE(registry.find(kUnusedSuppressionRule), nullptr);
  EXPECT_EQ(registry.find("vdl-bogus"), nullptr);
}

TEST(RuleRegistryTest, RejectsDuplicateAndEmptyIds) {
  RuleRegistry registry;
  LintRule rule;
  rule.id = "vdl-x";
  rule.check = [](const LintContext&, std::vector<Finding>&) {};
  registry.add(rule);
  EXPECT_THROW(registry.add(rule), std::invalid_argument);
  rule.id = "";
  EXPECT_THROW(registry.add(rule), std::invalid_argument);
}

// --- fixtures: every rule fires, every clean twin stays quiet ------------

struct FixtureCase {
  const char* slug;
  const char* rule;
  const char* fire_ext = ".cpp";
};

const FixtureCase kFixtureCases[] = {
    {"rand", "vdl-rand"},
    {"random_device", "vdl-random-device"},
    {"time", "vdl-time"},
    {"wallclock", "vdl-wallclock-now"},
    {"span_name", "vdl-span-name"},
    {"fault_point", "vdl-fault-point"},
    {"stage_literal", "vdl-stage-literal"},
    {"phase_literal", "vdl-phase-literal"},
    {"unordered_export", "vdl-unordered-export"},
    {"env_prefix", "vdl-env-prefix"},
    {"thread_local", "vdl-thread-local"},
    {"pragma_once", "vdl-pragma-once", ".h"},
    {"include_path", "vdl-include-path"},
    {"unused_suppression", "vdl-unused-suppression"},
    {"std_distribution", "vdl-std-distribution"},
};

std::vector<Finding> analyze_fixture(const std::string& name) {
  static const NameTables tables = load_name_tables(kRepoRoot);
  static const RuleRegistry registry = RuleRegistry::default_rules();
  const std::string display = "tests/lint/fixtures/" + name;
  return analyze_file(kRepoRoot / "tests" / "lint" / "fixtures" / name,
                      display, tables, registry);
}

class FixtureRuleTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(FixtureRuleTest, FireFixtureYieldsExactlyItsRulesFinding) {
  const FixtureCase& c = GetParam();
  const std::vector<Finding> findings =
      analyze_fixture(std::string(c.slug) + "_fire" + c.fire_ext);
  ASSERT_EQ(findings.size(), 1u) << render_human(findings);
  EXPECT_EQ(findings[0].rule, c.rule);
  EXPECT_GT(findings[0].line, 0u);
  EXPECT_GT(findings[0].column, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllRules, FixtureRuleTest,
                         ::testing::ValuesIn(kFixtureCases),
                         [](const auto& info) {
                           std::string name = info.param.slug;
                           return name;
                         });

// The clean twins take an index into kFixtureCases, not a FixtureCase.
// gtest prints a struct of pointers as its raw bytes, which move with
// every load address, and ctest's test names include that printout; an
// index prints the same in every build and run.
class CleanTwinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CleanTwinTest, StaysQuiet) {
  const std::string slug = kFixtureCases[GetParam()].slug;
  const std::string ext = slug == "pragma_once" ? ".h" : ".cpp";
  const std::vector<Finding> findings =
      analyze_fixture(slug + "_clean" + ext);
  EXPECT_TRUE(findings.empty()) << render_human(findings);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, CleanTwinTest,
    ::testing::Range<std::size_t>(0, std::size(kFixtureCases)),
    [](const auto& info) {
      return std::string(kFixtureCases[info.param].slug);
    });

// --- suppressions --------------------------------------------------------

class SuppressionTest : public ::testing::Test {
 protected:
  std::vector<Finding> analyze(std::string_view source) {
    return analyze_source("src/example.cpp", source, tables_, registry_);
  }
  const NameTables tables_ = load_name_tables(kRepoRoot);
  const RuleRegistry registry_ = RuleRegistry::default_rules();
};

TEST_F(SuppressionTest, TrailingCommentSilencesItsOwnLine) {
  const std::vector<Finding> findings = analyze(
      "int f() { return std::rand(); }  // vdlint:allow(vdl-rand)\n");
  EXPECT_TRUE(findings.empty()) << render_human(findings);
}

TEST_F(SuppressionTest, StandaloneCommentSilencesTheNextLine) {
  const std::vector<Finding> findings = analyze(
      "// vdlint:allow(vdl-rand)\nint f() { return std::rand(); }\n");
  EXPECT_TRUE(findings.empty()) << render_human(findings);
}

TEST_F(SuppressionTest, CommentDoesNotReachPastTheNextLine) {
  const std::vector<Finding> findings = analyze(
      "// vdlint:allow(vdl-rand)\nint g();\nint f() { return std::rand(); }\n");
  ASSERT_EQ(findings.size(), 2u) << render_human(findings);
  // The rand on line 3 still fires and the allow on line 1 is now unused.
  EXPECT_EQ(findings[0].rule, kUnusedSuppressionRule);
  EXPECT_EQ(findings[1].rule, "vdl-rand");
}

TEST_F(SuppressionTest, ListedRulesAllApplyAndUnlistedStay) {
  const std::vector<Finding> findings = analyze(
      "// vdlint:allow(vdl-rand, vdl-random-device)\n"
      "int f() { return std::rand() + (int)std::random_device{}(); }\n");
  EXPECT_TRUE(findings.empty()) << render_human(findings);
}

TEST_F(SuppressionTest, UnusedSuppressionCannotItselfBeSuppressed) {
  const std::vector<Finding> findings = analyze(
      "// vdlint:allow(vdl-unused-suppression)\nint f();\n");
  ASSERT_EQ(findings.size(), 1u) << render_human(findings);
  EXPECT_EQ(findings[0].rule, kUnusedSuppressionRule);
}

// --- output --------------------------------------------------------------

TEST(OutputTest, SarifGoldenMatchesAndRendersDeterministically) {
  const NameTables tables = load_name_tables(kRepoRoot);
  const RuleRegistry registry = RuleRegistry::default_rules();
  const std::vector<SourceFile> files =
      collect_files(kRepoRoot, {"tests/lint/fixtures"});
  ASSERT_EQ(files.size(), 2 * std::size(kFixtureCases));  // fire + clean
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    std::vector<Finding> f =
        analyze_file(file.path, file.display, tables, registry);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  const std::string sarif = render_sarif(findings, registry);
  EXPECT_EQ(sarif, render_sarif(findings, registry));
  EXPECT_EQ(sarif, slurp(kRepoRoot / "tests" / "lint" /
                         "expected_fixtures.sarif"))
      << "regenerate with: vdlint --root . --sarif --out "
         "tests/lint/expected_fixtures.sarif tests/lint/fixtures";
}

TEST(OutputTest, HumanAndJsonRenderingsCoverEveryFinding) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, 7, "vdl-rand", Severity::kError, "msg"},
  };
  const RuleRegistry registry = RuleRegistry::default_rules();
  EXPECT_NE(render_human(findings).find("src/a.cpp:3:7: error: msg"),
            std::string::npos);
  const std::string json = render_json(findings, registry);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"vdl-rand\""), std::string::npos);
  EXPECT_EQ(render_human({}), "vdlint: clean\n");
}

// --- discovery and the self-scan gate ------------------------------------

TEST(CollectFilesTest, DefaultScanSkipsFixturesAndSortsDeterministically) {
  const std::vector<SourceFile> files = collect_files(kRepoRoot, {"tests"});
  ASSERT_FALSE(files.empty());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(files[i].display.find("lint/fixtures"), std::string::npos)
        << files[i].display;
    if (i > 0) {
      EXPECT_LT(files[i - 1].display, files[i].display);
    }
  }
}

TEST(SelfScanTest, RepositorySourcesLintClean) {
  const NameTables tables = load_name_tables(kRepoRoot);
  const RuleRegistry registry = RuleRegistry::default_rules();
  const std::vector<SourceFile> files =
      collect_files(kRepoRoot, {"src", "bench", "tests"});
  ASSERT_GT(files.size(), 50u);
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    std::vector<Finding> f =
        analyze_file(file.path, file.display, tables, registry);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  EXPECT_TRUE(findings.empty()) << render_human(findings);
}

}  // namespace
}  // namespace vdbench::lint
