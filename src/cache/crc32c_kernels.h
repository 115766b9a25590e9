// cache::crc32c's two kernels, for crc32c.cpp and its tests. The portable
// one runs on every target; the SSE4.2 one is built on x86-64. crc32c()
// runs the SSE4.2 kernel when has_sse42(), and the tests run both.
#pragma once

#include <cstdint>
#include <string_view>

namespace vdbench::cache {

/// CRC-32C of `bytes`, eight bytes per step through eight 256-entry tables
/// (slicing-by-8).
[[nodiscard]] std::uint32_t crc32c_portable(std::string_view bytes) noexcept;

#if defined(__x86_64__)
/// Whether this CPU runs SSE4.2; probed on the first call.
[[nodiscard]] bool has_sse42() noexcept;
/// CRC-32C of `bytes` by the crc32 instruction, one 8-byte word per step.
[[nodiscard]] std::uint32_t crc32c_sse42(std::string_view bytes) noexcept;
#endif

}  // namespace vdbench::cache
