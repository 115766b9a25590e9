// Shared types of the perfbench harness: run options, the report every
// workload fills, and the timing helpers the workloads share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "trace.h"

namespace perfbench {

/// Worker threads for every workload that runs the parallel engine.
inline constexpr std::size_t kThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch;  ///< this run's scratch dir, removed after
  std::string daemon;             ///< vdbenchd binary
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run hands back to main(): the metrics of the contract line,
/// the op ledger, and detail fields (rendered JSON) for the detail line.
struct RunReport {
  std::vector<Metric> metrics;
  OpLedger ops;
  std::vector<std::pair<std::string, std::string>> detail;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string rendered_json) {
    detail.emplace_back(std::move(key), std::move(rendered_json));
  }
};

/// Set-up is timed in fresh processes, as a user of the CLI pays it: each
/// repetition starts this binary with --setup-into setup_dir(i), which does
/// the workload's set-up there and exits, and is timed from start to exit.
/// The directories stay for the caller. Throws when a repetition fails.
[[nodiscard]] std::vector<double> time_setups(const Options& options,
                                              int repeats);
[[nodiscard]] std::filesystem::path setup_dir(const Options& options, int i);
/// What the --setup-into child does for the workload.
void run_setup(const Options& options, const std::filesystem::path& dir);

/// The end-to-end metric set every untraced run reports, from its setup
/// repetitions (seconds), op times (seconds) and peak RSS (KiB).
void add_end_to_end(RunReport& report, const std::vector<double>& setup_s,
                    const std::vector<double>& op_s, double peak_rss_kib);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Paces a run's op loop: the first op always runs, and another starts
/// only when it can end within the run's seconds, judged by the longest op
/// so far, so a run never overshoots its time by a whole op.
class RunClock {
 public:
  explicit RunClock(double seconds) : seconds_(seconds) {}
  [[nodiscard]] bool another() const {
    return ops_ == 0 || seconds_since(start_) + longest_ <= seconds_;
  }
  void done(double op_seconds) {
    ++ops_;
    longest_ = std::max(longest_, op_seconds);
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
  double longest_ = 0.0;
  std::size_t ops_ = 0;
};

/// An ostream that discards everything (driver progress output).
class NullStream : public std::ostream {
 public:
  NullStream() : std::ostream(&buf_) {}

 private:
  struct Buf : std::streambuf {
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  } buf_;
};

[[nodiscard]] std::string read_file(const std::filesystem::path& path);
void write_file(const std::filesystem::path& path, const std::string& content);

RunReport run_cold_study(const Options& options);
RunReport run_intake(const Options& options);
RunReport run_stream(const Options& options);
/// The traced run: every layer probe, whatever the workload.
RunReport run_probes(const Options& options, Trace& trace);

}  // namespace perfbench
