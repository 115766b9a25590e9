// Vulnerability taxonomy of the simulated ecosystem.
//
// The DSN'15 study sits on top of the authors' benchmarks of SQL-injection
// detection tools for web services; vdsim generalises the workload to a
// small CWE-style taxonomy so tool profiles can differ per class (static
// analysers are strong on memory errors, penetration testers on injection,
// and so on), which is what makes simulated tool populations realistic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace vdbench::vdsim {

/// Vulnerability classes seeded into workloads.
enum class VulnClass : std::uint8_t {
  kSqlInjection,
  kXss,
  kCommandInjection,
  kPathTraversal,
  kBufferOverflow,
  kIntegerOverflow,
  kUseAfterFree,
  kWeakCrypto,
};

inline constexpr std::size_t kVulnClassCount = 8;

/// All classes in canonical order.
[[nodiscard]] std::span<const VulnClass> all_vuln_classes();

/// Display name, e.g. "SQL injection".
[[nodiscard]] std::string_view vuln_class_name(VulnClass c);

/// Representative CWE identifier, e.g. "CWE-89".
[[nodiscard]] std::string_view vuln_class_cwe(VulnClass c);

/// Severity of a vulnerability instance.
enum class Severity : std::uint8_t { kLow, kMedium, kHigh, kCritical };

inline constexpr std::size_t kSeverityCount = 4;

/// Per-class array type used for tool sensitivities and class mixes.
template <typename T>
using PerClass = std::array<T, kVulnClassCount>;

/// Index of a class in PerClass arrays.
[[nodiscard]] constexpr std::size_t vuln_class_index(VulnClass c) noexcept {
  return static_cast<std::size_t>(c);
}

}  // namespace vdbench::vdsim
