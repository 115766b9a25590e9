// vdlint rule registry: project-specific contracts over vdbench's own
// C++ sources.
//
// Structured like sast::RuleRegistry (src/sast/rules.h): each rule has a
// stable id, a severity, a one-line summary, and a deterministic check
// over the token stream of one translation unit. Rules encode contracts
// the test suite can only probe indirectly — banned nondeterminism
// sources, registry-backed span/fault/stage spellings, export-path
// ordering hazards, env-variable namespacing — so violations surface at
// lint time instead of as flaky byte-identity diffs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lint/finding.h"
#include "lint/scanner.h"

namespace vdbench::lint {

/// Rule id of the analyzer-emitted unused-suppression diagnostic. It is
/// registered (so reports list it) but its findings come from the
/// suppression pass in analyzer.cpp, and it cannot itself be suppressed.
inline constexpr const char* kUnusedSuppressionRule = "vdl-unused-suppression";

/// Everything a rule may inspect for one file. `file` is the root-relative
/// display path with '/' separators — rules use it for path exemptions.
struct LintContext {
  std::string file;
  const std::vector<CppToken>& tokens;
};

struct LintRule {
  std::string id;        ///< e.g. "vdl-rand"
  Severity severity = Severity::kError;
  std::string summary;   ///< one line for --help / the README rule table
  std::function<void(const LintContext&, std::vector<Finding>&)> check;
};

class RuleRegistry {
 public:
  /// Throws std::invalid_argument on duplicate/empty id or missing check.
  void add(LintRule rule);

  [[nodiscard]] const std::vector<LintRule>& rules() const noexcept {
    return rules_;
  }

  [[nodiscard]] const LintRule* find(const std::string& id) const noexcept;

  /// Run every rule over one file's tokens, in registry order.
  [[nodiscard]] std::vector<Finding> apply(const LintContext& context) const;

  /// The built-in vdbench contract rules (see README "Linting").
  [[nodiscard]] static RuleRegistry default_rules();

 private:
  std::vector<LintRule> rules_;
};

}  // namespace vdbench::lint
