// `vdbench-client`: submit one study to a running `vdbenchd` and mirror
// its outcome. Progress frames stream to stdout as they arrive; --json-out
// writes the daemon's export verbatim, so the file is byte-identical to a
// local `vdbench --json-out` run of the same study. The exit code is the
// daemon's status verbatim (0 ok / 3 partial / 1 unusable / 2 usage) plus
// the session codes 4 (busy/draining) and 5 (transport/deadline).
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "cache/result_cache.h"
#include "net/client.h"
#include "stats/env.h"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: vdbench-client [options]\n"
         "  --socket PATH          daemon socket (default vdbenchd.sock)\n"
         "  --experiments CSV      selection, as for vdbench (default "
         "all)\n"
         "  --threads N            engine threads for this study\n"
         "  --seed N               study-seed override\n"
         "  --no-cache             bypass the daemon's shared cache\n"
         "  --refresh              recompute and overwrite cache entries\n"
         "  --retries N            supervisor retries per experiment\n"
         "  --timeout-sec X        per-experiment deadline\n"
         "  --quiet                suppress streamed report text\n"
         "  --json-out PATH        write the streamed JSON export here\n"
         "  --manifest-out PATH    request + write the session manifest\n"
         "  --client-timeout-sec X client-side deadline (default 60)\n"
         "  --help                 this text\n";
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const std::optional<std::uint64_t> value = vdbench::stats::parse_uint64(text);
  if (value) out = *value;
  return value.has_value();
}

bool parse_seconds(std::string_view text, double& out) {
  const std::optional<double> value = vdbench::stats::parse_finite(text);
  if (value) out = *value;
  return value.has_value();
}

}  // namespace

int main(int argc, char** argv) {
  vdbench::net::ClientOptions options;
  options.request.quiet = false;
  std::string json_out;
  std::string manifest_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      return i + 1 < argc ? std::string_view(argv[++i]) : std::string_view();
    };
    bool ok = true;
    std::uint64_t number = 0;
    if (arg == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--socket") {
      options.socket_path = std::string(value());
      ok = !options.socket_path.empty();
    } else if (arg == "--experiments") {
      options.request.experiments = std::string(value());
      ok = !options.request.experiments.empty();
    } else if (arg == "--threads") {
      ok = parse_u64(value(), number);
      options.request.threads = static_cast<std::size_t>(number);
    } else if (arg == "--seed") {
      ok = parse_u64(value(), options.request.study_seed);
    } else if (arg == "--no-cache") {
      options.request.use_cache = false;
    } else if (arg == "--refresh") {
      options.request.refresh = true;
    } else if (arg == "--retries") {
      ok = parse_u64(value(), number);
      options.request.retries = static_cast<std::size_t>(number);
    } else if (arg == "--timeout-sec") {
      ok = parse_seconds(value(), options.request.timeout_sec);
    } else if (arg == "--quiet") {
      options.request.quiet = true;
    } else if (arg == "--json-out") {
      json_out = std::string(value());
      ok = !json_out.empty();
    } else if (arg == "--manifest-out") {
      manifest_out = std::string(value());
      options.request.want_manifest = true;
      ok = !manifest_out.empty();
    } else if (arg == "--client-timeout-sec") {
      ok = parse_seconds(value(), options.deadline_sec);
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "vdbench-client: bad argument: " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  const vdbench::net::ClientOutcome outcome =
      vdbench::net::run_study(options, std::cout);
  if (!outcome.status.error.empty())
    std::cerr << "vdbench-client: " << outcome.status.status << ": "
              << outcome.status.error << "\n";
  else
    std::cout << "vdbench-client: " << outcome.status.status << "\n";

  if (!json_out.empty() && !outcome.export_json.empty() &&
      !vdbench::cache::write_file_atomic(json_out, outcome.export_json)) {
    std::cerr << "vdbench-client: could not write " << json_out << "\n";
    return 1;
  }
  if (!manifest_out.empty() && !outcome.manifest_json.empty() &&
      !vdbench::cache::write_file_atomic(manifest_out,
                                         outcome.manifest_json)) {
    std::cerr << "vdbench-client: could not write " << manifest_out << "\n";
    return 1;
  }
  return outcome.status.exit_code;
}
