// Little-endian integer codec and FNV-1a checksum trailer, shared by the
// two binary formats: the VDRLOG01 report log (stream/report_log.h, with
// its 10-byte site records in stream/record.h) and the VDNF wire frame
// (net/frame.h).
//
// Integers are written byte by byte, least significant first, so the bytes
// are the same on every platform. Each function is a fold over the byte
// indices rather than a loop: the compiler sees straight-line code and, on
// a little-endian host, merges it into one load or one store.
#pragma once

#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "cache/hash.h"

namespace vdbench::cache {

/// Append `value` to `out` as sizeof(T) little-endian bytes.
template <std::unsigned_integral T>
void put_le(std::string& out, T value) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    const char bytes[] = {static_cast<char>(value >> (8 * I))...};
    out.append(bytes, sizeof(T));
  }(std::make_index_sequence<sizeof(T)>{});
}

/// Read sizeof(T) little-endian bytes starting at `bytes`.
template <std::unsigned_integral T>
[[nodiscard]] T get_le(const char* bytes) noexcept {
  return [bytes]<std::size_t... I>(std::index_sequence<I...>) {
    return static_cast<T>(
        ((T{static_cast<unsigned char>(bytes[I])} << (8 * I)) | ...));
  }(std::make_index_sequence<sizeof(T)>{});
}

/// Close a frame: append the u64 little-endian FNV-1a of the bytes
/// `frame[from, end)` to `frame`.
inline void put_checksum(std::string& frame, std::size_t from = 0) {
  put_le(frame, fnv1a64(std::string_view(frame).substr(from)));
}

}  // namespace vdbench::cache
