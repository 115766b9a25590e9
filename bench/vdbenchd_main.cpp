// `vdbenchd`: serve the study registry over a unix-domain socket. See
// net/server.h for the robustness contract and README.md ("Daemon") for
// usage. SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish
// or cancel in-flight work, print the drain summary, exit 0.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "experiments.h"
#include "fault/injector.h"
#include "net/server.h"
#include "stats/env.h"
#include "stats/parallel.h"
#include "study_common.h"

namespace {

vdbench::net::Server* g_server = nullptr;

void handle_drain_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

void print_usage(std::ostream& out) {
  out << "usage: vdbenchd [options]\n"
         "  --socket PATH        unix socket to listen on (default "
         "vdbenchd.sock)\n"
         "  --max-queue N        sessions allowed to wait (default 4)\n"
         "  --deadline-sec X     per-connection wall-clock budget "
         "(default 30)\n"
         "  --request-sec X      budget for reading the request frame "
         "(default 5)\n"
         "  --drain-sec X        grace for in-flight work on drain "
         "(default 5)\n"
         "  --threads N          parallel engine default for sessions "
         "(at most 256)\n"
         "  --cache-dir PATH     shared result cache directory\n"
         "  --work-dir PATH      session manifests/exports (default "
         ".vdbenchd)\n"
         "  --help               this text\n"
         "Drain with SIGTERM or SIGINT; the daemon exits 0 after a clean "
         "drain.\n";
}

bool parse_size(std::string_view text, std::size_t& out) {
  const std::optional<std::uint64_t> value = vdbench::stats::parse_uint64(text);
  if (value) out = static_cast<std::size_t>(*value);
  return value.has_value();
}

bool parse_seconds(std::string_view text, double& out) {
  const std::optional<double> value = vdbench::stats::parse_finite(text);
  if (value) out = *value;
  return value.has_value();
}

}  // namespace

int main(int argc, char** argv) {
  vdbench::net::ServerOptions options;
  options.study_seed = vdbench::bench::kStudySeed;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      return i + 1 < argc ? std::string_view(argv[++i]) : std::string_view();
    };
    bool ok = true;
    if (arg == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--socket") {
      options.socket_path = std::string(value());
      ok = !options.socket_path.empty();
    } else if (arg == "--max-queue") {
      ok = parse_size(value(), options.max_queue);
    } else if (arg == "--deadline-sec") {
      ok = parse_seconds(value(), options.deadline_sec);
    } else if (arg == "--request-sec") {
      ok = parse_seconds(value(), options.request_sec);
    } else if (arg == "--drain-sec") {
      ok = parse_seconds(value(), options.drain_sec);
    } else if (arg == "--threads") {
      ok = parse_size(value(), options.threads) &&
           options.threads <= vdbench::stats::kMaxThreads;
    } else if (arg == "--cache-dir") {
      options.cache_dir = std::string(value());
      ok = !options.cache_dir.empty();
    } else if (arg == "--work-dir") {
      options.work_dir = std::string(value());
      ok = !options.work_dir.empty();
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "vdbenchd: bad argument: " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  try {
    vdbench::fault::Injector::global().arm_from_env();
  } catch (const std::invalid_argument& error) {
    std::cerr << "vdbenchd: " << error.what() << "\n";
    return 2;
  }

  const vdbench::cli::ExperimentRegistry registry =
      vdbench::bench::study_registry();
  try {
    vdbench::net::Server server(registry, options);
    g_server = &server;
    struct sigaction action {};
    action.sa_handler = handle_drain_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    const int rc = server.run(std::cout);
    g_server = nullptr;
    return rc;
  } catch (const vdbench::net::TransportError& error) {
    std::cerr << "vdbenchd: " << error.what() << "\n";
    return 1;
  }
}
