#include "stats/env.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace vdbench::stats {

std::optional<std::uint64_t> parse_uint64(std::string_view text) {
  // from_chars takes no '+' or whitespace and, for an unsigned type, no
  // '-'; it reports overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::optional<double> parse_finite(std::string_view text) {
  // A leading digit rules out a sign, whitespace, "inf" and "nan", which
  // from_chars would otherwise take; the fixed format rules out exponents.
  if (text.empty() || text.front() < '0' || text.front() > '9')
    return std::nullopt;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] =
      std::from_chars(text.data(), end, value, std::chars_format::fixed);
  if (error != std::errc() || stop != end || !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

std::optional<std::uint64_t> env_uint64(const char* name) {
  const std::optional<std::string> raw = env_string(name);
  if (!raw) return std::nullopt;
  return parse_uint64(*raw);
}

std::optional<std::uint64_t> env_uint64_at_least(const char* name,
                                                 std::uint64_t min) {
  const std::optional<std::uint64_t> parsed = env_uint64(name);
  if (!parsed || *parsed < min) return std::nullopt;
  return parsed;
}

}  // namespace vdbench::stats
