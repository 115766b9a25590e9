// Shared parsing of the VDBENCH_-prefixed environment variables.
//
// Every knob the harness reads from the environment (VDBENCH_THREADS,
// VDBENCH_CACHE_DIR, VDBENCH_CACHE_MAX_BYTES) goes through these helpers so
// the parsing rules — unset and empty both mean "absent", malformed numbers
// are ignored rather than fatal — are defined exactly once instead of per
// binary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace vdbench::stats {

/// Value of an environment variable; nullopt when unset or empty.
[[nodiscard]] std::optional<std::string> env_string(const char* name);

/// Unsigned integer value of an environment variable; nullopt when unset,
/// empty, malformed, negative, or out of range for uint64.
[[nodiscard]] std::optional<std::uint64_t> env_uint64(const char* name);

/// env_uint64 restricted to values >= `min`; nullopt otherwise. Used for
/// knobs like VDBENCH_THREADS where 0 is not a meaningful setting.
[[nodiscard]] std::optional<std::uint64_t> env_uint64_at_least(
    const char* name, std::uint64_t min);

}  // namespace vdbench::stats
