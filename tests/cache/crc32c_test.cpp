// CRC-32C kernels: the portable slicing-by-8 kernel and the SSE4.2 one are
// each checked against a one-bit-at-a-time reference on random bytes, and
// against the published check value and the RFC 3720 (iSCSI) vectors, so
// the SSE4.2 host that runs crc32c() still tests the portable kernel.
#include "cache/crc32c_kernels.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/bytes.h"
#include "stats/rng.h"

namespace vdbench::cache {
namespace {

using Kernel = std::uint32_t (*)(std::string_view) noexcept;

// CRC-32C one bit at a time from its definition: the reflected Castagnoli
// polynomial, initial value and final xor 0xFFFFFFFF. No tables, no words.
std::uint32_t reference_crc32c(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
  }
  return ~crc;
}

// Every length 0–64 and 64 random lengths up to 4096, each at start
// offsets 0–7, so both the 8-byte body and the bytewise tail of a kernel
// see every alignment.
void expect_matches_reference(Kernel kernel) {
  stats::Rng rng(0xC2C32C);
  std::string buffer(4096 + 8, '\0');
  for (char& ch : buffer) ch = static_cast<char>(rng.uniform_int(0, 255));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (int i = 0; i < 64; ++i)
    lengths.push_back(static_cast<std::size_t>(rng.uniform_int(0, 4096)));
  lengths.push_back(4096);
  for (const std::size_t n : lengths)
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view bytes(buffer.data() + offset, n);
      ASSERT_EQ(kernel(bytes), reference_crc32c(bytes))
          << "length " << n << ", offset " << offset;
    }
}

std::string byte_run(std::size_t n, int first, int step) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<char>(first + step * static_cast<int>(i)));
  return out;
}

// "123456789" is the check value of the CRC catalogues; the four 32-byte
// vectors are RFC 3720, appendix B.4.
void expect_published_vectors(Kernel kernel) {
  EXPECT_EQ(kernel(""), 0x00000000u);
  EXPECT_EQ(kernel("123456789"), 0xE3069283u);
  EXPECT_EQ(kernel(std::string(32, '\x00')), 0x8A9136AAu);
  EXPECT_EQ(kernel(std::string(32, '\xFF')), 0x62A8AB43u);
  EXPECT_EQ(kernel(byte_run(32, 0x00, 1)), 0x46DD794Eu);
  EXPECT_EQ(kernel(byte_run(32, 0x1F, -1)), 0x113FDB5Cu);
}

TEST(Crc32cTest, PortableMatchesTheBitwiseReference) {
  expect_matches_reference(crc32c_portable);
}

TEST(Crc32cTest, PortableGivesThePublishedVectors) {
  expect_published_vectors(crc32c_portable);
}

TEST(Crc32cTest, Sse42MatchesTheBitwiseReference) {
#if defined(__x86_64__)
  if (!has_sse42()) GTEST_SKIP() << "this CPU has no SSE4.2";
  expect_matches_reference(crc32c_sse42);
#else
  GTEST_SKIP() << "the SSE4.2 kernel is built on x86-64 only";
#endif
}

TEST(Crc32cTest, Sse42GivesThePublishedVectors) {
#if defined(__x86_64__)
  if (!has_sse42()) GTEST_SKIP() << "this CPU has no SSE4.2";
  expect_published_vectors(crc32c_sse42);
#else
  GTEST_SKIP() << "the SSE4.2 kernel is built on x86-64 only";
#endif
}

TEST(Crc32cTest, TheEnvelopeChecksumIsCrc32c) {
  expect_published_vectors([](std::string_view bytes) noexcept {
    return crc32c(bytes);
  });
  std::string frame = "123456789";
  put_checksum(frame);
  EXPECT_EQ(frame, std::string("123456789\x83\x92\x06\xE3"));
  EXPECT_EQ(frame.size(), 9 + kChecksumBytes);
  EXPECT_TRUE(checksum_matches("123456789", frame.data() + 9));
  EXPECT_FALSE(checksum_matches("123456788", frame.data() + 9));
}

}  // namespace
}  // namespace vdbench::cache
