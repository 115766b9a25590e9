// CodeEmitter: renders a generated workload into mini-language source.
//
// Every candidate analysis site of every service becomes a real function
// (`site_<index>`) in a small imperative language (see src/sast/lexer.h for
// the concrete syntax). Seeded vulnerability instances are embedded as real
// code patterns — source → transform/helper chain → sink — whose
// obfuscation grows with the instance's intrinsic difficulty; clean sites
// render as benign, correctly sanitized, or "typed-taint" code (the shape
// that baits the analyzer's documented false positive).
//
// The emission is a pure function of the workload (no RNG): variant choices
// for clean sites come from a splitmix64 hash of (service, site), and every
// difficulty threshold below is a documented contract with the sast rule
// set, so the analyzer's exact detection set is computable from the ground
// truth alone (and asserted in tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vdsim/workload.h"

namespace vdbench::vdsim {

/// Difficulty thresholds at which the emitter switches on each obfuscation.
/// These pin down MiniSAST's blind spots exactly (see src/sast/rules.h):
/// an instance above the threshold is emitted in the shape its rule cannot
/// see, below it in the plain shape the rule catches.
inline constexpr double kXssFormatDifficulty = 0.50;   ///< format() markup
inline constexpr double kCredConcatDifficulty = 0.50;  ///< concat'd literal
inline constexpr double kBofHelperDifficulty = 0.55;   ///< sink in helper
inline constexpr double kPathLowerDifficulty = 0.60;   ///< to_lower "washes"

/// Nested-helper indirection depth a SQL-injection instance is wrapped in:
/// 0 below 0.30, 1 below 0.60, 2 below 0.85, 3 at and above 0.85. The sast
/// engine inlines up to TaintConfig::max_call_depth (default 2) nested
/// calls, so only depth-3 instances escape it.
[[nodiscard]] std::size_t sqli_indirection_depth(double difficulty);

/// Shape a clean (vulnerability-free) candidate site renders as.
enum class CleanVariant : std::uint8_t {
  kBenign,         ///< literal-only code, no taint anywhere
  kSanitizedFlow,  ///< source → recognised sanitizer → sink (no alert)
  kTypedTaint,     ///< source → to_int → sink: the analyzer's FP bait
};

/// Deterministic per-site variant choice (hash of service and site index);
/// roughly 1/16 of clean sites are kTypedTaint and 2/16 kSanitizedFlow.
[[nodiscard]] CleanVariant clean_variant(std::size_t service_index,
                                         std::size_t site_index);

/// One rendered service.
struct SourceFile {
  std::string name;  ///< e.g. "service-3.mini"
  std::size_t service_index = 0;
  std::string text;
};

class CodeEmitter {
 public:
  /// The workload must outlive the emitter.
  explicit CodeEmitter(const Workload& workload) : workload_(&workload) {}

  /// Render one service. Throws std::out_of_range on a bad index.
  [[nodiscard]] SourceFile emit_service(std::size_t service_index) const;

 private:
  const Workload* workload_;
};

}  // namespace vdbench::vdsim
