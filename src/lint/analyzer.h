// vdlint analysis driver: file discovery, per-file rule application, and
// `// vdlint:allow(<rule>)` suppression handling.
//
// Suppression contract: a comment containing `vdlint:allow(...)` — with
// one or more comma-separated rule ids between the parentheses — silences
// those rules on the line it shares with code, or on the next line when
// the comment stands alone. Every suppression must pay its way —
// one that matches no finding is itself reported as
// `vdl-unused-suppression` (which cannot be suppressed), so stale allows
// cannot accumulate.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "lint/finding.h"
#include "lint/rules.h"

namespace vdbench::lint {

/// Analyze one translation unit's text. `display_path` is the
/// root-relative, '/'-separated path used for findings and exemptions.
/// Returns the surviving findings (suppressions applied), sorted.
[[nodiscard]] std::vector<Finding> analyze_source(
    const std::string& display_path, std::string_view source,
    const RuleRegistry& registry);

/// analyze_source over a file's bytes. Throws std::runtime_error when the
/// file cannot be read.
[[nodiscard]] std::vector<Finding> analyze_file(
    const std::filesystem::path& path, const std::string& display_path,
    const RuleRegistry& registry);

struct SourceFile {
  std::filesystem::path path;  ///< as opened
  std::string display;         ///< root-relative, '/'-separated
};

/// Expand `inputs` (files or directories, relative to `root` unless
/// absolute) into the sorted, deduplicated list of C++ sources to lint
/// (.h/.hpp/.cpp/.cc). Directories recurse; anything under a
/// `lint/fixtures` directory is skipped unless the input itself points
/// into one (so the fixture corpus can still be linted on purpose).
/// Throws std::runtime_error for an input that does not exist.
[[nodiscard]] std::vector<SourceFile> collect_files(
    const std::filesystem::path& root, const std::vector<std::string>& inputs);

}  // namespace vdbench::lint
