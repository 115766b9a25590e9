// Stable content hashing for keys: result-cache keys and the checksum in a
// cache entry's text header, stream::file_digest (which joins a replayed
// log into the cache key) and the stream's per-service seeds.
//
// FNV-1a (64-bit) is deliberately simple: the cache needs a hash that is
// identical across processes, platforms and library versions — not a
// cryptographic one. Keys additionally length-prefix every field so that
// ("ab","c") and ("a","bc") can never collide by concatenation. The binary
// envelopes (report log, wire frame) check their frames with CRC-32C
// instead (cache/bytes.h).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace vdbench::cache {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// 64-bit FNV-1a over `bytes`, continuing from `state` (chainable).
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t state = kFnvOffsetBasis) noexcept {
  for (const char ch : bytes) {
    state ^= static_cast<unsigned char>(ch);
    state *= kFnvPrime;
  }
  return state;
}

/// Fixed-width lowercase hex rendering (16 chars) of a 64-bit digest.
[[nodiscard]] std::string to_hex64(std::uint64_t value);

/// Parse to_hex64 output back; returns false on malformed input.
[[nodiscard]] bool from_hex64(std::string_view text, std::uint64_t& out);

}  // namespace vdbench::cache
