// Shared parsing of the VDBENCH_-prefixed environment variables, and the
// one strict number parser behind every numeric flag, env knob and wire
// count.
//
// Every knob the harness reads from the environment (VDBENCH_THREADS,
// VDBENCH_CACHE_DIR, VDBENCH_CACHE_MAX_BYTES) goes through these helpers so
// the parsing rules — unset and empty both mean "absent", malformed numbers
// are ignored rather than fatal — are defined exactly once instead of per
// binary. The command-line flags of vdbench, vdbenchd and vdbench-client
// and the daemon protocol's decimal-string counts parse with
// parse_uint64/parse_finite, and reject (exit 2) what those reject.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vdbench::stats {

/// `text` as a non-negative decimal integer: digits only (no sign, no
/// whitespace, nothing after them) and at most 2^64-1; nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_uint64(std::string_view text);

/// `text` as a non-negative finite decimal number: digits with an optional
/// fractional part (no sign, no exponent, no whitespace, no "inf"/"nan");
/// nullopt otherwise.
[[nodiscard]] std::optional<double> parse_finite(std::string_view text);

/// Value of an environment variable; nullopt when unset or empty.
[[nodiscard]] std::optional<std::string> env_string(const char* name);

/// parse_uint64 of an environment variable; nullopt when unset, empty or
/// rejected by parse_uint64.
[[nodiscard]] std::optional<std::uint64_t> env_uint64(const char* name);

/// env_uint64 restricted to values >= `min`; nullopt otherwise. Used for
/// knobs like VDBENCH_THREADS where 0 is not a meaningful setting.
[[nodiscard]] std::optional<std::uint64_t> env_uint64_at_least(
    const char* name, std::uint64_t min);

}  // namespace vdbench::stats
