// Inputs and calls shared by the untraced workloads and the traced probe
// run, so both drive the program identically.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "cli/driver.h"
#include "schedule.h"
#include "stream/pipeline.h"

// Declared here so the aliases below never depend on which program
// headers a file happens to include.
namespace vdbench::bench {}
namespace vdbench::corpus {}
namespace vdbench::net {}
namespace vdbench::vdsim {}

namespace perfbench {

namespace fs = std::filesystem;
namespace bench = vdbench::bench;
namespace cache = vdbench::cache;
namespace cli = vdbench::cli;
namespace core = vdbench::core;
namespace corpus = vdbench::corpus;
namespace net = vdbench::net;
namespace stats = vdbench::stats;
namespace stream = vdbench::stream;
namespace vdsim = vdbench::vdsim;

/// Driver options for a study run writing export, manifest and artifacts
/// under `dir` with the given file-name tag, cache at `cache_dir`.
[[nodiscard]] cli::DriverOptions study_options(const std::string& experiments,
                                               const fs::path& dir,
                                               const std::string& tag,
                                               const fs::path& cache_dir);

// --- vdbenchd sessions (serve probes) --------------------------------------

/// The study a warm session requests: the paper's three stages, E1-E9.
/// Replaying all 18 cacheable experiments takes ~17 ms on a disk-backed
/// work dir, within 3 ms of the daemon's 20 ms watchdog tick that every
/// session end waits for, so disk jitter and CPU steal flip such sessions
/// between 21, 42 and 63 ms; E1-E9 replays in about 5 ms.
inline constexpr const char* kWarmStudy = "e1,e2,e3,e4,e5,e6,e7,e8,e9";
inline constexpr double kArrivalsPerSecond = 20.0;
inline constexpr std::size_t kLoadSessions = 200;  ///< p95 needs >= 200
inline constexpr std::size_t kMaxInFlight = 3;
inline constexpr std::size_t kRefreshEvery = 10;

/// Arguments for vdbenchd running in its own directory.
[[nodiscard]] std::vector<std::string> daemon_args();
inline constexpr const char* kSocketName = "d.sock";

struct Session {
  std::string status;
  int exit_code = 0;
  std::string error;
  std::string export_json;
  std::string manifest_json;
};

/// One session: the kWarmStudy study, or a refresh of e12.
[[nodiscard]] Session run_session(const fs::path& socket, bool refresh,
                                  bool want_manifest = false);

/// Sessions sent, succeeded, rejected busy and failed in one phase.
struct PhaseCounts {
  std::uint64_t sent = 0, succeeded = 0, busy = 0, failed = 0;
  void add(const Session& session, bool passed_checks);
  [[nodiscard]] std::string json() const;
};

/// The reason a session counts as a failed op ("" when it passed):
/// non-zero exit or status, busy/transport reply, or an export that does
/// not match `reference`.
[[nodiscard]] std::string session_failure(const Session& session,
                                          const std::string& reference);

struct LoadResult {
  std::vector<double> latency_s;  ///< completion - due time, per session
  std::vector<double> late_s;     ///< start - due time, per session
  PhaseCounts counts;
};

/// Open loop over `schedule`: each session starts at its due time or, with
/// kMaxInFlight sessions already out, as soon as one returns. Warm exports
/// must equal `reference`; refresh exports must equal the first refresh's.
[[nodiscard]] LoadResult run_load(const fs::path& socket,
                                  const std::vector<Arrival>& schedule,
                                  const std::string& reference,
                                  OpLedger& ops);

// --- intake ---------------------------------------------------------------

inline constexpr std::uint32_t kSitesPerEcosystem = 50'000;

struct IntakeInputs {
  fs::path truth;
  std::vector<fs::path> reports;  ///< one per vdsim::builtin_tools() entry
  std::vector<std::string> tools;
};

/// Where the intake inputs live under `dir`.
[[nodiscard]] IntakeInputs intake_inputs(const fs::path& dir);

/// E19's four ecosystems at kSitesPerEcosystem sites each, from the
/// workload seed: the ground-truth manifest and every built-in tool's
/// SARIF report, written under `dir`.
IntakeInputs write_intake_inputs(const fs::path& dir, std::uint64_t seed);

// --- stream ---------------------------------------------------------------

inline constexpr std::uint64_t kStreamSites = 10'000'000;

/// E18's stream at kStreamSites sites, seeded from the workload seed.
[[nodiscard]] stream::StreamSpec stream_spec(std::uint64_t seed);

[[nodiscard]] StreamCounts counts_of(const stream::StreamResult& result);

}  // namespace perfbench
