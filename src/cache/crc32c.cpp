#include "cache/crc32c_kernels.h"

#include <array>
#include <cstddef>
#include <cstring>

#include "cache/bytes.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace vdbench::cache {

namespace {

// The Castagnoli polynomial 0x1EDC6F41, bit-reversed: CRC-32C shifts right,
// so the first byte's least significant bit is the highest power of x.
constexpr std::uint32_t kPolynomial = 0x82F63B78u;
constexpr std::uint32_t kInitial = 0xFFFFFFFFu;  // also the final xor

using Table = std::array<std::uint32_t, 256>;

// kTables[0][b] advances the CRC over byte b; kTables[k][b] over byte b
// followed by k zero bytes, so eight lookups advance it over eight bytes.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    std::uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ (kPolynomial & (0u - (crc & 1u)));
    tables[0][byte] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::size_t byte = 0; byte < 256; ++byte) {
      const std::uint32_t prev = tables[k - 1][byte];
      tables[k][byte] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

}  // namespace

std::uint32_t crc32c_portable(std::string_view bytes) noexcept {
  std::uint32_t crc = kInitial;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t low = crc ^ get_le<std::uint32_t>(p);
    const std::uint32_t high = get_le<std::uint32_t>(p + 4);
    crc = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
          kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24] ^
          kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu] ^
          kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24];
  }
  for (; n > 0; ++p, --n)
    crc = (crc >> 8) ^
          kTables[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu];
  return crc ^ kInitial;
}

#if defined(__x86_64__)
bool has_sse42() noexcept {
  // Probed on first use, which may come before the runtime has run its own
  // CPU probe, hence __builtin_cpu_init.
  static const bool supported =
      (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2") != 0);
  return supported;
}

// x86 is little-endian, so a word loaded by memcpy feeds the instruction its
// eight bytes in stream order.
[[gnu::target("sse4.2")]] std::uint32_t crc32c_sse42(
    std::string_view bytes) noexcept {
  std::uint64_t crc = kInitial;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n)
    tail = _mm_crc32_u8(tail, static_cast<unsigned char>(*p));
  return tail ^ kInitial;
}
#endif

std::uint32_t crc32c(std::string_view bytes) noexcept {
#if defined(__x86_64__)
  if (has_sse42()) return crc32c_sse42(bytes);
#endif
  return crc32c_portable(bytes);
}

}  // namespace vdbench::cache
