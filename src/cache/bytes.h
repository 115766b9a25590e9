// Little-endian integer codec and CRC-32C checksum trailer, shared by the
// two binary formats: the VDRLOG01 report log (stream/report_log.h, with
// its 10-byte site records in stream/record.h) and the VDNF wire frame
// (net/frame.h).
//
// Integers are written byte by byte, least significant first, so the bytes
// are the same on every platform. Each function is a fold over the byte
// indices rather than a loop: the compiler sees straight-line code and, on
// a little-endian host, merges it into one load or one store.
//
// Every frame of both formats ends in a kChecksumBytes trailer: the u32
// little-endian CRC-32C (Castagnoli) of the frame's checksummed bytes.
// put_checksum writes it and checksum_matches verifies it; no reader
// computes or parses a trailer itself. Both readers take a frame's
// declared length through read_appended, so a damaged length field is
// rejected by a short read before it can size a large allocation.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

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

/// CRC-32C of `bytes`: the Castagnoli polynomial, reflected, with initial
/// value and final xor 0xFFFFFFFF ("123456789" gives 0xE3069283). Runs the
/// SSE4.2 crc32 instruction where the CPU has it and a table kernel
/// elsewhere (cache/crc32c_kernels.h); both give the same value.
[[nodiscard]] std::uint32_t crc32c(std::string_view bytes) noexcept;

/// Width of a frame's checksum trailer.
inline constexpr std::size_t kChecksumBytes = sizeof(std::uint32_t);

/// Close a frame: append the u32 little-endian CRC-32C of the bytes
/// `frame[from, end)` to `frame`.
inline void put_checksum(std::string& frame, std::size_t from = 0) {
  put_le(frame, crc32c(std::string_view(frame).substr(from)));
}

/// Whether the kChecksumBytes at `trailer` are the checksum put_checksum
/// writes for `bytes`.
[[nodiscard]] inline bool checksum_matches(std::string_view bytes,
                                           const char* trailer) noexcept {
  return get_le<std::uint32_t>(trailer) == crc32c(bytes);
}

/// Append `n` bytes to `buffer` by calls of read(dst, count), each of at
/// most 1 MiB, where `read` fills exactly [dst, dst + count) or throws. A
/// declared length that the stream does not hold therefore costs one step
/// of memory before `read` fails, not the length's own value.
template <class Read>
void read_appended(std::string& buffer, std::size_t n, Read&& read) {
  constexpr std::size_t kStepBytes = std::size_t{1} << 20;
  while (n > 0) {
    const std::size_t step = std::min(n, kStepBytes);
    const std::size_t start = buffer.size();
    buffer.resize(start + step);
    read(buffer.data() + start, step);
    n -= step;
  }
}

}  // namespace vdbench::cache
