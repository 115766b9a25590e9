// Report-log format tests: round-trip fidelity, peek semantics, digest
// stability, and — the ISSUE's fix item — loud typed rejection of every
// kind of structural damage (truncated tail, bit flip, bad magic, wrong
// version, unknown frame type, implausible record count). A reader that
// silently yields a short stream would defeat record/replay entirely.
#include "stream/report_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace vdbench::stream {
namespace {

namespace fs = std::filesystem;

class ReportLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vdrlog_test_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ / "log.vdrlog";
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Two segments (tags 100 and 7) holding three chunks total.
  void write_sample() {
    ReportLogWriter writer(path_);
    writer.begin_segment(100);
    writer.append(make_chunk(0, 5));
    writer.append(make_chunk(5, 3));
    writer.begin_segment(7);
    writer.append(make_chunk(0, 2));
    writer.close();
  }

  static ReportChunk make_chunk(std::uint64_t first_site,
                                std::size_t records) {
    ReportChunk chunk;
    chunk.first_site = first_site;
    for (std::size_t i = 0; i < records; ++i) {
      SiteRecord rec;
      rec.service = static_cast<std::uint32_t>(first_site / 1000);
      rec.site = static_cast<std::uint32_t>(first_site + i);
      rec.truth = (i % 3 == 0) ? static_cast<std::uint8_t>(i % 8) : kCleanSite;
      rec.claimed =
          (i % 2 == 0) ? static_cast<std::uint8_t>(i % 8) : kNoFinding;
      chunk.records.push_back(rec);
    }
    return chunk;
  }

  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  void dump(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Drains the reader; returns how many frames came out before the end.
  static std::size_t drain(ReportLogReader& reader) {
    std::size_t frames = 0;
    while (reader.next().has_value()) ++frames;
    return frames;
  }

  fs::path dir_;
  fs::path path_;
};

// Lowercase hex of `bytes`, for readable byte-level comparisons.
std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto byte = static_cast<unsigned char>(ch);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0x0F]);
  }
  return out;
}

// Bytes of the lowercase hex string `text` (even length, no separators).
std::string from_hex(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(static_cast<char>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  return out;
}

// The bytes of report_log.h's layout, spelled out: every integer field
// little-endian and every frame closed by the u32 LE CRC-32C of its bytes.
// The expected hex was computed from the layout comment with a bitwise
// CRC-32C (tests/support/envelope_pins.py), not from the writer, so a
// codec that changed byte order, checksum or coverage fails here even
// though its own writer and reader still agree.
TEST_F(ReportLogTest, WritesTheDocumentedBytes) {
  ReportChunk two;
  two.first_site = 0x1122334455667788ULL;
  two.records.push_back({0x0A0B0C0Du, 0x00010203u, 3, kNoFinding});
  two.records.push_back({1u, 0x00040000u, kCleanSite, 2});
  ReportChunk empty;
  empty.first_site = 0x0000000100000002ULL;
  {
    ReportLogWriter writer(path_);
    writer.begin_segment(0x0102030405060708ULL);
    writer.append(two);
    writer.append(empty);
    writer.close();
  }
  const std::string header =  // "VDRLOG01", version 2, reserved 0
      "5644524c4f473031" "02000000" "00000000";
  const std::string segment =  // type, tag, checksum
      "01" "0807060504030201" "7d0e0ae5";
  const std::string chunk =  // type, count, first site, 2 records, checksum
      "02" "02000000" "8877665544332211"
      "0d0c0b0a" "03020100" "03" "ff"
      "01000000" "00000400" "ff" "02"
      "304dcadc";
  const std::string empty_chunk =  // type, count 0, first site, checksum
      "02" "00000000" "0200000001000000" "d885c292";
  EXPECT_EQ(hex(slurp()), header + segment + chunk + empty_chunk);

  // The reader takes the same bytes back to the same values.
  ReportLogReader reader(path_);
  std::optional<LogFrame> frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->segment_tag, 0x0102030405060708ULL);
  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->chunk, two);
  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->chunk, empty);
  EXPECT_FALSE(reader.next().has_value());
}

// The same log as format version 1 wrote it, each frame closed by a u64 LE
// FNV-1a (`envelope_pins.py --version 1`). The reader refuses it by its
// version field at open, before any trailer is read.
TEST_F(ReportLogTest, RejectsTheVersion1Bytes) {
  dump(from_hex(
      "5644524c4f473031" "01000000" "00000000"
      "01" "0807060504030201" "1454596f884e7b1b"
      "02" "02000000" "8877665544332211"
      "0d0c0b0a" "03020100" "03" "ff"
      "01000000" "00000400" "ff" "02"
      "2d3aab5a2be6c7a4"
      "02" "00000000" "0200000001000000" "666a58bb9dae733a"));
  try {
    ReportLogReader reader(path_);
    FAIL() << "a version 1 log was opened";
  } catch (const LogCorrupt& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unsupported format version 1 in"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("checksum mismatch"), std::string::npos) << what;
  }
}

TEST_F(ReportLogTest, RoundTripsSegmentsAndChunksExactly) {
  write_sample();

  ReportLogReader reader(path_);
  std::optional<LogFrame> frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, LogFrame::Kind::kSegment);
  EXPECT_EQ(frame->segment_tag, 100u);

  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->kind, LogFrame::Kind::kChunk);
  EXPECT_EQ(frame->chunk.first_site, 0u);
  ASSERT_EQ(frame->chunk.records.size(), 5u);
  const ReportChunk expect = make_chunk(0, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(frame->chunk.records[i].service, expect.records[i].service);
    EXPECT_EQ(frame->chunk.records[i].site, expect.records[i].site);
    EXPECT_EQ(frame->chunk.records[i].truth, expect.records[i].truth);
    EXPECT_EQ(frame->chunk.records[i].claimed, expect.records[i].claimed);
  }

  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->kind, LogFrame::Kind::kChunk);
  EXPECT_EQ(frame->chunk.records.size(), 3u);

  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, LogFrame::Kind::kSegment);
  EXPECT_EQ(frame->segment_tag, 7u);

  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->kind, LogFrame::Kind::kChunk);
  EXPECT_EQ(frame->chunk.records.size(), 2u);

  // Clean EOF: nullopt, repeatably.
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(ReportLogTest, PeekDoesNotConsume) {
  write_sample();
  ReportLogReader reader(path_);
  const LogFrame* peeked = reader.peek();
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->kind, LogFrame::Kind::kSegment);
  EXPECT_EQ(peeked->segment_tag, 100u);
  // Same frame again from peek, then from next.
  EXPECT_EQ(reader.peek(), peeked);
  const std::optional<LogFrame> frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->segment_tag, 100u);
  // At EOF peek returns nullptr without consuming anything else.
  while (reader.next().has_value()) {
  }
  EXPECT_EQ(reader.peek(), nullptr);
}

TEST_F(ReportLogTest, EmptyLogIsJustAHeader) {
  {
    ReportLogWriter writer(path_);
    writer.close();
  }
  EXPECT_EQ(slurp().size(), 16u);
  ReportLogReader reader(path_);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(ReportLogTest, BytesWrittenMatchesFileSize) {
  std::uint64_t reported = 0;
  {
    ReportLogWriter writer(path_);
    writer.begin_segment(1);
    writer.append(make_chunk(0, 4));
    writer.close();
    reported = writer.bytes_written();
  }
  EXPECT_EQ(reported, static_cast<std::uint64_t>(fs::file_size(path_)));
}

TEST_F(ReportLogTest, DigestIsStableAndContentSensitive) {
  write_sample();
  const std::uint64_t digest = file_digest(path_);
  EXPECT_EQ(file_digest(path_), digest);  // stable across reads

  std::string bytes = slurp();
  bytes[bytes.size() / 2] ^= 0x01;
  dump(bytes);
  EXPECT_NE(file_digest(path_), digest);  // one flipped bit moves it
}

TEST_F(ReportLogTest, TruncatedTailThrowsLogCorruptNotShortStream) {
  write_sample();
  const std::string bytes = slurp();
  // Cut mid-way through the final chunk frame's payload.
  dump(bytes.substr(0, bytes.size() - 7));
  ReportLogReader reader(path_);
  EXPECT_THROW(drain(reader), LogCorrupt);
}

TEST_F(ReportLogTest, EveryTruncationPointIsLoud) {
  // The reader must never mistake ANY mid-frame cut for a clean EOF. Walk
  // a range of cut points across the file body; each must either keep the
  // stream whole (cut exactly on a frame boundary) or raise LogCorrupt —
  // but a boundary cut mid-file still loses frames, so require LogCorrupt
  // OR a shorter-but-valid prefix, never a *silent* full-length stream.
  write_sample();
  const std::string bytes = slurp();
  std::size_t full_frames = 0;
  {
    ReportLogReader reader(path_);
    full_frames = drain(reader);
  }
  for (std::size_t cut = 17; cut < bytes.size(); cut += 3) {
    dump(bytes.substr(0, cut));
    ReportLogReader reader(path_);
    try {
      const std::size_t frames = drain(reader);
      EXPECT_LT(frames, full_frames)
          << "cut at " << cut << " silently produced the full stream";
    } catch (const LogCorrupt&) {
      // Loud rejection: exactly the contract.
    }
  }
}

TEST_F(ReportLogTest, ChecksumCatchesAPayloadBitFlip) {
  write_sample();
  std::string bytes = slurp();
  // Flip one payload bit inside the first chunk frame: header(16) +
  // segment frame(13) + chunk type/count/first_site(13) lands in records.
  bytes[16 + 13 + 13 + 4] ^= 0x20;
  dump(bytes);
  ReportLogReader reader(path_);
  EXPECT_THROW(drain(reader), LogCorrupt);
}

TEST_F(ReportLogTest, BadMagicIsRejectedAtOpen) {
  write_sample();
  std::string bytes = slurp();
  bytes[0] = 'X';
  dump(bytes);
  EXPECT_THROW(ReportLogReader reader(path_), LogCorrupt);
}

TEST_F(ReportLogTest, UnsupportedVersionIsRejectedAtOpen) {
  write_sample();
  std::string bytes = slurp();
  bytes[8] = static_cast<char>(kLogFormatVersion + 1);  // u32 LE low byte
  dump(bytes);
  EXPECT_THROW(ReportLogReader reader(path_), LogCorrupt);
}

TEST_F(ReportLogTest, TruncatedHeaderIsRejectedAtOpen) {
  write_sample();
  dump(slurp().substr(0, 9));
  EXPECT_THROW(ReportLogReader reader(path_), LogCorrupt);
}

TEST_F(ReportLogTest, UnknownFrameTypeIsRejected) {
  write_sample();
  std::string bytes = slurp();
  bytes[16] = 0x7F;  // first frame's type byte
  dump(bytes);
  ReportLogReader reader(path_);
  EXPECT_THROW(drain(reader), LogCorrupt);
}

TEST_F(ReportLogTest, ImplausibleRecordCountIsRejected) {
  {
    ReportLogWriter writer(path_);
    writer.close();
  }
  // Hand-craft a chunk frame claiming 2^32-1 records: must be rejected as
  // implausible before the reader tries to allocate 40 GiB.
  std::string bytes = slurp();
  bytes.push_back(0x02);                                   // chunk frame
  for (int i = 0; i < 4; ++i) bytes.push_back('\xFF');     // count
  for (int i = 0; i < 8; ++i) bytes.push_back('\0');       // first_site
  dump(bytes);
  ReportLogReader reader(path_);
  EXPECT_THROW(drain(reader), LogCorrupt);
}

TEST_F(ReportLogTest, CorruptionErrorsCarryTheTypedPrefix) {
  write_sample();
  dump(slurp().substr(0, 20));
  ReportLogReader reader(path_);
  try {
    drain(reader);
    FAIL() << "truncated log drained cleanly";
  } catch (const LogCorrupt& error) {
    EXPECT_EQ(std::string(error.what()).rfind("report log corrupt: ", 0), 0u)
        << error.what();
  }
}

}  // namespace
}  // namespace vdbench::stream
