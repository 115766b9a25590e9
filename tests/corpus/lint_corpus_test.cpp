// End-to-end fixture corpus: the checked-in vdlint golden SARIF scored
// against tests/corpus/lint_fixtures_truth.json — a real report file and a
// real manifest file flowing through intake, matching and both evaluation
// paths, with the exact expected confusion counts pinned.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/confusion.h"
#include "corpus/intake.h"
#include "corpus/matcher.h"

namespace vdbench::corpus {
namespace {

namespace fs = std::filesystem;

const fs::path kRepoRoot{VDBENCH_SOURCE_DIR};

TEST(LintCorpusTest, GoldenReportScoresAgainstTheTruthFixture) {
  const Manifest truth = read_manifest_file(
      (kRepoRoot / "tests" / "corpus" / "lint_fixtures_truth.json").string());
  const SarifReport report = read_sarif_file(
      (kRepoRoot / "tests" / "lint" / "expected_fixtures.sarif").string());

  const MatchResult match = match_findings(truth, report);
  // 14 of the 15 findings land on enumerated sites; 10 of those carry rule
  // ids the manifest cannot map into the taxonomy (9 unmapped +
  // vdl-fault-point's out-of-taxonomy CWE-710) and claim kUnknownClass.
  // The manifest does not enumerate std_distribution_fire.cpp, so its
  // finding is a stray: counted, never scored.
  EXPECT_EQ(match.stats, (MatchStats{17, 14, 1, 0, 10}));

  const core::ConfusionMatrix direct = evaluate_direct(match.records);
  // 3 TP: vdl-rand, vdl-random-device (CWE-327) and vdl-include-path
  //       (CWE-22) hit vulnerable sites with matching truth.
  // 11 FP: 9 unknown-class claims on clean sites, plus the wrong-class
  //       claim on env_prefix_fire (truth CWE-89, claim CWE-78) and the
  //       unknown-class claim on fault_point_fire.
  // 3 FN: those two mis-claimed vulnerable sites stay missed, plus the
  //       silent vulnerable rand_clean.cpp site.
  // 2 TN: the clean sites no finding touched.
  EXPECT_EQ(direct.tp, 3u);
  EXPECT_EQ(direct.fp, 11u);
  EXPECT_EQ(direct.fn, 3u);
  EXPECT_EQ(direct.tn, 2u);

  // The streamed path is a pure transport over the same records.
  EXPECT_TRUE(direct == evaluate_streamed(match.records, 4));
}

}  // namespace
}  // namespace vdbench::corpus
