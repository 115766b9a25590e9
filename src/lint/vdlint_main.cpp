// vdlint: the vdbench self-lint CLI.
//
//   vdlint [--json|--sarif] [--out FILE] [--root DIR] [path...]
//
// Lints the repo's own C++ sources against the contract rules in
// lint/rules.cpp. Paths default to `src bench tests` under --root (default:
// the current directory). Findings name files relative to --root, and the
// rules' path exemptions match those names, so lint from the repo root.
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "lint/analyzer.h"
#include "lint/output.h"

namespace {

enum class Format { kHuman, kJson, kSarif };

struct Options {
  Format format = Format::kHuman;
  std::string out_path;  ///< empty = stdout
  std::string root = ".";
  std::vector<std::string> paths;
  bool list_rules = false;
};

constexpr const char* kUsage =
    "usage: vdlint [--json|--sarif] [--out FILE] [--root DIR] [--list-rules]"
    " [path...]\n"
    "Lints vdbench C++ sources against the repo contract rules.\n"
    "Paths default to: src bench tests (relative to --root).\n"
    "Exit status: 0 clean, 1 findings, 2 usage or I/O error.\n";

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      options.format = Format::kJson;
    } else if (arg == "--sarif") {
      options.format = Format::kSarif;
    } else if (arg == "--human") {
      options.format = Format::kHuman;
    } else if (arg == "--list-rules") {
      options.list_rules = true;
    } else if (arg == "--out" || arg == "--root") {
      if (i + 1 >= argc) {
        error = arg + " requires an argument";
        return false;
      }
      (arg == "--out" ? options.out_path : options.root) = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown option " + arg;
      return false;
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.paths.empty()) options.paths = {"src", "bench", "tests"};
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdbench::lint;

  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << "vdlint: " << error << "\n" << kUsage;
    return 2;
  }

  try {
    const RuleRegistry registry = RuleRegistry::default_rules();
    if (options.list_rules) {
      for (const LintRule& rule : registry.rules())
        std::cout << rule.id << "  (" << severity_name(rule.severity)
                  << ")  " << rule.summary << "\n";
      return 0;
    }

    const std::vector<SourceFile> files =
        collect_files(options.root, options.paths);

    std::vector<Finding> findings;
    for (const SourceFile& file : files) {
      std::vector<Finding> file_findings =
          analyze_file(file.path, file.display, registry);
      findings.insert(findings.end(),
                      std::make_move_iterator(file_findings.begin()),
                      std::make_move_iterator(file_findings.end()));
    }

    std::string rendered;
    switch (options.format) {
      case Format::kHuman: rendered = render_human(findings); break;
      case Format::kJson: rendered = render_json(findings, registry); break;
      case Format::kSarif: rendered = render_sarif(findings, registry); break;
    }

    if (options.out_path.empty()) {
      std::cout << rendered;
    } else {
      std::ofstream out(options.out_path, std::ios::binary);
      if (!out) {
        std::cerr << "vdlint: cannot write " << options.out_path << "\n";
        return 2;
      }
      out << rendered;
      if (!out.flush()) {
        std::cerr << "vdlint: short write to " << options.out_path << "\n";
        return 2;
      }
    }
    return findings.empty() ? 0 : 1;
  } catch (const std::exception& ex) {
    std::cerr << "vdlint: " << ex.what() << "\n";
    return 2;
  }
}
