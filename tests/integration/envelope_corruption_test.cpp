// Corruption stays loud under the envelopes' CRC-32C trailer. Every single
// flipped bit and every solid burst of 2–32 flipped bits, at every bit
// offset of one pinned report-log chunk frame and of one pinned VDNF frame,
// must be rejected with the format's typed error.
//
// Bits are counted least significant first within each byte: the order in
// which the reflected CRC reads them, so a burst here is a burst of the
// CRC's own polynomial, and CRC-32C detects every burst of 32 bits or fewer
// inside the checksummed bytes. A burst that reaches the VDNF magic, a
// version, a frame type or a length field is caught by the reader's
// structural checks instead, or by the checksum over a different span.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "net/frame.h"
#include "stream/report_log.h"

namespace vdbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kLongestBurst = 32;

// Bytes of the lowercase hex string `text` (even length, no separators).
std::string from_hex(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(static_cast<char>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  return out;
}

// Calls visit(damaged, first_bit, length) for every solid burst of 1 to
// kLongestBurst flipped bits that fits in `bytes`; returns how many.
template <class Visit>
std::size_t for_each_burst(const std::string& bytes, Visit visit) {
  const std::size_t bits = bytes.size() * 8;
  std::string damaged = bytes;
  const auto flip = [&](std::size_t first, std::size_t length) {
    for (std::size_t bit = first; bit < first + length; ++bit)
      damaged[bit / 8] =
          static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
  };
  std::size_t bursts = 0;
  for (std::size_t length = 1; length <= kLongestBurst; ++length)
    for (std::size_t first = 0; first + length <= bits; ++first) {
      flip(first, length);
      visit(damaged, first, length);
      flip(first, length);
      ++bursts;
    }
  return bursts;
}

// ReportLogTest.WritesTheDocumentedBytes' two-record chunk frame, after a
// version 2 header.
TEST(EnvelopeCorruptionTest, EveryBurstInAReportLogChunkFrameIsRejected) {
  const std::string header =
      from_hex("5644524c4f473031" "02000000" "00000000");
  const std::string frame = from_hex(
      "02" "02000000" "8877665544332211"
      "0d0c0b0a" "03020100" "03" "ff"
      "01000000" "00000400" "ff" "02"
      "304dcadc");
  const fs::path path =
      fs::temp_directory_path() / "vdbench_envelope_corruption.vdrlog";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << header;
  // Each damaged frame overwrites the last in place, after the header.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  const auto read_all = [&](const std::string& frame_bytes) {
    file.seekp(static_cast<std::streamoff>(header.size()));
    file.write(frame_bytes.data(),
               static_cast<std::streamsize>(frame_bytes.size()));
    file.flush();
    stream::ReportLogReader reader(path);
    std::size_t frames = 0;
    while (reader.next().has_value()) ++frames;
    return frames;
  };

  ASSERT_EQ(read_all(frame), 1u);  // the undamaged pin reads back
  std::size_t rejected = 0;
  const std::size_t bursts = for_each_burst(
      frame, [&](const std::string& damaged, std::size_t first,
                 std::size_t length) {
        try {
          (void)read_all(damaged);
          ADD_FAILURE() << length << "-bit burst at bit " << first
                        << " was accepted";
        } catch (const stream::LogCorrupt&) {
          ++rejected;
        }
      });
  file.close();
  fs::remove(path);
  EXPECT_EQ(rejected, bursts);
}

// FrameTest.EncodesTheDocumentedBytes' request frame.
TEST(EnvelopeCorruptionTest, EveryBurstInAWireFrameIsRejected) {
  // The u32 payload length sits at bytes 8-11, after magic, version, type
  // and reserved.
  constexpr std::size_t kLengthFirstBit = 8 * 8;
  constexpr std::size_t kLengthEndBit = 12 * 8;
  const std::string frame =
      from_hex("56444e46" "02" "01" "0000" "14000000") +
      R"({"experiments":"e1"})" + from_hex("b6aab62a");
  const auto read_all = [](const std::string& bytes) {
    std::size_t pos = 0;
    return net::read_frame(
        [&bytes, &pos](char* dst, std::size_t n) {
          if (n > bytes.size() - pos)
            throw net::TransportError("short read in test source");
          bytes.copy(dst, n, pos);
          pos += n;
        },
        net::kRoleClient);
  };

  ASSERT_EQ(read_all(frame).payload, R"({"experiments":"e1"})");
  std::size_t rejected = 0;
  const std::size_t bursts = for_each_burst(
      frame, [&](const std::string& damaged, std::size_t first,
                 std::size_t length) {
        try {
          (void)read_all(damaged);
          ADD_FAILURE() << length << "-bit burst at bit " << first
                        << " was accepted";
        } catch (const net::FrameCorrupt&) {
          ++rejected;
        } catch (const net::TransportError&) {
          // Only a mangled length may run past the bytes sent.
          EXPECT_LT(first, kLengthEndBit) << length << "-bit burst at bit "
                                          << first << ": transport error";
          EXPECT_GT(first + length, kLengthFirstBit);
          ++rejected;
        }
      });
  EXPECT_EQ(rejected, bursts);
}

}  // namespace
}  // namespace vdbench
