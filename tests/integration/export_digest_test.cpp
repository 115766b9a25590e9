// Byte oracle for the whole study: runs every cacheable experiment through
// the driver at 2 threads and compares each experiment's exported bytes
// (report text plus artifacts) with a recorded digest, then the digest of
// the whole --json-out file. A refactor that moves any number of any
// experiment fails here and names the experiment; a deliberate change
// updates that experiment's row from the failure message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/hash.h"
#include "cli/driver.h"
#include "experiments.h"
#include "report/json_reader.h"
#include "study_common.h"

namespace vdbench::cli {
namespace {

namespace fs = std::filesystem;

struct RecordedDigest {
  const char* experiment;
  std::uint64_t digest;
};

// fnv1a64 chained over each payload's `text`, then every artifact's name
// and content in order. Recorded with gcc 12.2 / libstdc++: the stage-2
// and stage-3 streams are split by std::hash<std::string>, whose values
// another standard library may not share.
constexpr RecordedDigest kExperimentDigests[] = {
    {"e1", 0x3a9af00b4a0f6389ULL}, {"e2", 0xb7feeb2d270cfb39ULL},
    {"e3", 0xeb747dbf1392c4e9ULL}, {"e4", 0x2665c033b9312e4cULL},
    {"e5", 0xed472954a428648fULL}, {"e6", 0x8eae9f49d0dd7609ULL},
    {"e7", 0xdd6ddb680d8f2b46ULL}, {"e8", 0x3e163daee163b363ULL},
    {"e9", 0x774037f75120a331ULL}, {"e11", 0x8b6aa37b3b821e07ULL},
    {"e12", 0xfc4f67b99e9f5045ULL}, {"e13", 0x2d9d9dd9253250f7ULL},
    {"e14", 0x9bd879e7f0a989b0ULL}, {"e15", 0x8b10eeb17313bea8ULL},
    {"e16", 0x6b02feac3e5f3752ULL}, {"e17", 0x0b80a51e69c8416dULL},
    {"e18", 0xedc686afc2146364ULL}, {"e19", 0x78bca73b8a3ef29bULL},
};

// fnv1a64 of the whole export file: the digests above plus every title,
// config fingerprint and the telemetry block.
constexpr std::uint64_t kExportDigest = 0x46d004bc2538cb09ULL;

std::uint64_t payload_digest(const report::JsonValue& payload) {
  std::uint64_t digest = cache::fnv1a64(*payload.member("text")->as_string());
  for (const report::JsonValue& artifact :
       *payload.member("artifacts")->as_array()) {
    digest = cache::fnv1a64(*artifact.member("name")->as_string(), digest);
    digest = cache::fnv1a64(*artifact.member("content")->as_string(), digest);
  }
  return digest;
}

TEST(ExportDigestTest, EveryExperimentMatchesItsRecordedDigest) {
  const fs::path dir = fs::temp_directory_path() / "vdbench_export_digest_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  DriverOptions options;
  options.experiments = "all";
  options.threads = 2;
  options.quiet = true;
  options.cache_dir = (dir / "cache").string();
  options.manifest_path = (dir / "manifest.json").string();
  options.artifact_dir = dir.string();
  options.json_out = (dir / "export.json").string();
  options.study_seed = bench::kStudySeed;
  std::uint64_t tick = 0;
  options.clock = [&tick] { return ++tick; };

  std::ostringstream out;
  const RunOutcome outcome = run_driver(bench::study_registry(), options, out);
  ASSERT_EQ(outcome.exit_code, kExitOk) << out.str();

  std::ifstream in(dir / "export.json", std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  const std::optional<report::JsonDocument> parsed = report::parse_json(bytes);
  ASSERT_TRUE(parsed.has_value() && parsed->root().is_object());
  const report::JsonArray payloads =
      *parsed->root().member("experiments")->as_array();

  std::set<std::string> seen;
  for (const report::JsonValue& payload : payloads) {
    const std::string_view id = *payload.member("experiment")->as_string();
    seen.emplace(id);
    const auto row = std::find_if(
        std::begin(kExperimentDigests), std::end(kExperimentDigests),
        [&](const RecordedDigest& r) { return id == r.experiment; });
    const std::uint64_t digest = payload_digest(payload);
    if (row == std::end(kExperimentDigests)) {
      ADD_FAILURE() << id << " has no recorded digest; its digest is 0x"
                    << cache::to_hex64(digest);
      continue;
    }
    EXPECT_EQ(digest, row->digest)
        << id << " export moved; its new digest is 0x"
        << cache::to_hex64(digest);
  }
  for (const RecordedDigest& row : kExperimentDigests)
    EXPECT_TRUE(seen.contains(row.experiment))
        << row.experiment << " is missing from the export";

  const std::uint64_t whole = cache::fnv1a64(bytes);
  EXPECT_EQ(whole, kExportDigest)
      << "the export file moved; its new digest is 0x"
      << cache::to_hex64(whole);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vdbench::cli
