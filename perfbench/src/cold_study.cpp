// cold_study: the reproduction's headline action. One op is an in-process
// `vdbench --experiments all --threads 2` into an empty cache with JSON
// export on; its export must equal a warm replay of the cache it filled.
#include "experiments.h"
#include "harness.h"
#include "procfs.h"
#include "study_common.h"
#include "workloads.h"

namespace perfbench {

cli::DriverOptions study_options(const std::string& experiments,
                                 const fs::path& dir, const std::string& tag,
                                 const fs::path& cache_dir) {
  cli::DriverOptions options;
  options.experiments = experiments;
  options.threads = kThreads;
  options.cache_dir = cache_dir.string();
  options.quiet = true;
  options.json_out = (dir / (tag + ".export.json")).string();
  options.manifest_path = (dir / (tag + ".manifest.json")).string();
  options.artifact_dir = (dir / (tag + ".artifacts")).string();
  options.study_seed = bench::kStudySeed;
  return options;
}

namespace {

constexpr int kSetupRepeats = 41;

std::string cold_op_failure(const cli::ExperimentRegistry& registry,
                            const cli::RunOutcome& cold, const fs::path& dir,
                            const cli::DriverOptions& cold_options) {
  if (cold.exit_code != cli::kExitOk)
    return "cold study exited " + std::to_string(cold.exit_code);
  if (cold.experiments.empty() || cold.hits != 0 ||
      cold.misses != cold.experiments.size())
    return "cold study was served from cache";
  const cli::DriverOptions warm =
      study_options("all", dir, "warm", cold_options.cache_dir);
  NullStream sink;
  const cli::RunOutcome replay = cli::run_driver(registry, warm, sink);
  if (replay.exit_code != cli::kExitOk ||
      replay.hits != replay.experiments.size())
    return "warm replay missed the cache the cold study filled";
  return check_identical("cold_study export vs warm replay",
                         read_file(cold_options.json_out),
                         read_file(warm.json_out));
}

}  // namespace

RunReport run_cold_study(const Options& options) {
  RunReport report;

  const std::vector<double> setup_s = time_setups(options, kSetupRepeats);
  for (int i = 0; i < kSetupRepeats; ++i) fs::remove_all(setup_dir(options, i));
  const cli::ExperimentRegistry registry = bench::study_registry();

  // Warm-up, untimed: E2 and E6 cold keep both workers busy for about a
  // second, so the first op does not pay for idle CPUs coming up to speed.
  {
    const fs::path dir = options.scratch / "warm-up";
    NullStream sink;
    (void)cli::run_driver(registry, study_options("e2,e6", dir, "warm-up", dir / "cache"), sink);
    fs::remove_all(dir);
  }
  reset_peak_rss();
  std::vector<double> op_s;
  for (RunClock clock(options.seconds); clock.another(); clock.done(op_s.back())) {
    const std::size_t k = op_s.size();
    const fs::path dir = options.scratch / ("op-" + std::to_string(k));
    fs::create_directories(dir);
    const cli::DriverOptions cold =
        study_options("all", dir, "cold", dir / "cache");
    NullStream sink;
    const auto op_start = Clock::now();
    const cli::RunOutcome outcome = cli::run_driver(registry, cold, sink);
    op_s.push_back(seconds_since(op_start));
    report.ops.record(cold_op_failure(registry, outcome, dir, cold));
    fs::remove_all(dir);
  }
  add_end_to_end(report, setup_s, op_s, peak_rss_kib());
  return report;
}

}  // namespace perfbench
