// perfbench: one measured run of one workload.
//
//   perfbench --workload <cold_study|intake|stream> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir> [--out <dir>]
//             [--rev <text>]
//
// With --trace 0 the run measures the workload's ops and reports the
// end-to-end metrics; with --trace 1 it runs the layer probes and reports
// the per-layer metrics, writing the spans to <out>/<workload>-seed<n>.trace.json.
// Every file the run writes goes under --scratch, which is removed at the
// end. The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}
// the line before it carries the host fingerprint and run details.
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <spawn.h>
#include <string_view>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/result_cache.h"
#include "experiments.h"
#include "harness.h"
#include "json.h"
#include "procfs.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out.flush()) throw std::runtime_error("cannot write " + path.string());
}

std::filesystem::path setup_dir(const Options& options, int i) {
  return options.scratch / ("setup-" + std::to_string(i));
}

std::vector<double> time_setups(const Options& options, int repeats) {
  std::string self(4096, '\0');
  const ssize_t n = ::readlink("/proc/self/exe", self.data(), self.size());
  if (n <= 0) throw std::runtime_error("cannot locate the perfbench binary");
  self.resize(static_cast<std::size_t>(n));
  std::vector<double> durations;
  for (int i = 0; i < repeats; ++i) {
    std::vector<std::string> args = {
        self, "--workload", options.workload, "--seed",
        std::to_string(options.seed), "--setup-into",
        setup_dir(options, i).string()};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const auto start = Clock::now();
    if (::posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                      environ) != 0)
      throw std::runtime_error("cannot start a set-up process");
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    durations.push_back(seconds_since(start));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("set-up process " + std::to_string(i) +
                               " failed");
  }
  return durations;
}

void run_setup(const Options& options, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  if (options.workload == "cold_study") {
    // The registry plus an empty cache.
    const cli::ExperimentRegistry registry = bench::study_registry();
    const cache::ResultCache empty({dir / "cache"});
  } else if (options.workload == "intake") {
    write_intake_inputs(dir, options.seed);
  } else if (options.workload == "stream") {
    stream_spec(options.seed).validate();
  } else {
    throw std::runtime_error(options.workload + " has no set-up process");
  }
}

void add_end_to_end(RunReport& report, const std::vector<double>& setup_s,
                    const std::vector<double>& op_s, double peak_rss_kib) {
  report.metric("setup_s", median(setup_s), "s");
  report.metric("op_p50_ms", median(op_s) * 1e3, "ms");
  report.metric("peak_rss_mib", peak_rss_kib / 1024.0, "MiB");

  // A tail percentile only where ten ops lie beyond it.
  const std::optional<double> p95 = supported_percentile(op_s, 0.95);
  Json ops;
  ops.begin_object().key("count").value(static_cast<std::uint64_t>(op_s.size()));
  if (p95)
    ops.key("p95_ms").value(*p95 * 1e3);
  else
    ops.key("p95_ms").value("unsupported: fewer than 10 ops beyond it");
  ops.key("setup_s").begin_array();
  for (const double s : setup_s) ops.value(s);
  ops.end_array().key("op_ms").begin_array();
  for (const double s : op_s) ops.value(s * 1e3);
  ops.end_array().end_object();
  report.note("ops", ops.str());
}

namespace {

struct Cli {
  Options options;
  std::filesystem::path out_dir = ".bench_out";
  std::string rev = "unknown";
  std::filesystem::path setup_into;  ///< set: be a set-up process only
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <cold_study|intake|stream>"
               " --seed <n> --seconds <s> --trace <0|1> --scratch "
               "<dir> [--out <dir>] [--rev <text>]\n";
  std::exit(2);
}

Cli parse(int argc, char** argv) {
  Cli cli;
  cli.options.daemon = PERFBENCH_DAEMON;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cli.options.workload = value;
      } else if (arg == "--seed") {
        cli.options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        cli.options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        cli.options.trace = value == "1";
      } else if (arg == "--scratch") {
        cli.options.scratch = value;
      } else if (arg == "--out") {
        cli.out_dir = value;
      } else if (arg == "--rev") {
        cli.rev = value;
      } else if (arg == "--setup-into") {
        cli.setup_into = value;
      } else {
        usage("unknown argument " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(arg) + ": " + value);
    }
  }
  const std::string& w = cli.options.workload;
  if (w != "cold_study" && w != "intake" && w != "stream")
    usage("unknown workload '" + w + "'");
  if (!have_seed) usage("--seed is required");
  if (!cli.setup_into.empty()) return cli;
  if (cli.options.scratch.empty()) usage("--scratch is required");
  if (!(cli.options.seconds > 0.0)) usage("--seconds must be positive");
  return cli;
}

RunReport run(const Options& options, Trace& trace) {
  if (options.trace) return run_probes(options, trace);
  if (options.workload == "cold_study") return run_cold_study(options);
  if (options.workload == "intake") return run_intake(options);
  return run_stream(options);
}

/// Removes the run's scratch directory however the run ends.
struct ScratchGuard {
  std::filesystem::path dir;
  ~ScratchGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Cli cli = parse(argc, argv);
  const Options& options = cli.options;
  if (!cli.setup_into.empty()) {
    try {
      run_setup(options, cli.setup_into);
      return 0;
    } catch (const std::exception& error) {
      std::cerr << "perfbench: set-up failed: " << error.what() << "\n";
      return 1;
    }
  }
  // The scratch directory is this run's alone and is removed at the end,
  // so it must not hold anything yet.
  if (std::filesystem::exists(options.scratch) &&
      !std::filesystem::is_empty(options.scratch))
    usage("--scratch " + options.scratch.string() + " is not empty");
  try {
    const ScratchGuard guard{options.scratch};
    std::filesystem::create_directories(options.scratch);

    const double steal_before = steal_jiffies();
    const std::string load_before = load_average();
    const auto started = Clock::now();
    Trace trace;
    RunReport report = run(options, trace);
    const double wall_s = seconds_since(started);

    if (options.trace) {
      std::filesystem::create_directories(cli.out_dir);
      write_file(cli.out_dir / (options.workload + "-seed" +
                                std::to_string(options.seed) + ".trace.json"),
                 trace.chrome_json());
    }

    Json detail;
    detail.begin_object()
        .key("workload").value(options.workload)
        .key("seed").value(options.seed)
        .key("seconds").value(options.seconds)
        .key("trace").value(options.trace)
        .key("wall_s").value(wall_s)
        .key("host").begin_object()
        .key("nproc").value(static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)))
        .key("compiler").value(PERFBENCH_COMPILER)
        .key("build_type").value(PERFBENCH_BUILD_TYPE)
        .key("rev").value(cli.rev)
        .key("steal_jiffies").value(steal_jiffies() - steal_before)
        .key("loadavg_start").value(load_before)
        .key("loadavg_end").value(load_average())
        .end_object();
    for (const auto& [key, rendered] : report.detail) detail.key(key).raw(rendered);
    detail.key("failures").value(report.ops.reasons()).end_object();

    Json result;
    result.begin_object()
        .key("correct").value(report.ops.failed() == 0)
        .key("attempted").value(report.ops.attempted())
        .key("failed").value(report.ops.failed())
        .key("metrics").begin_object();
    for (const Metric& metric : report.metrics)
      result.key(metric.name).begin_object()
          .key("value").value(metric.value)
          .key("unit").value(metric.unit)
          .end_object();
    result.end_object().end_object();

    std::cout << detail.str() << "\n" << result.str() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: " << error.what()
              << "\n";
    return 1;
  }
}
