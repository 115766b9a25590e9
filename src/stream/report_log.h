// Compact binary "tool report log": the on-disk record/replay format of the
// streaming evaluation pipeline.
//
// A log is a versioned header followed by append-only checksummed frames:
//
//   header   16 bytes: magic "VDRLOG01", u32 format version (2), u32
//            reserved
//   segment  frame type 0x01, u64 tag (the stream's declared total sites),
//            u32 CRC-32C checksum over (type, tag)
//   chunk    frame type 0x02, u32 record count, u64 first-site ordinal,
//            count * kRecordBytes payload, u32 CRC-32C checksum over
//            (type, count, first_site, payload)
//
// All integers are little-endian and every checksum is the frame's 4-byte
// LE trailer (cache/bytes.h, shared with the wire frame of net/frame.h), so
// a log recorded on any platform replays byte-identically on any other. The
// reader verifies a frame's trailer before it decodes any field past the
// record count. Each stream is one segment frame followed by its chunk
// frames; a file may hold several segments back to back.
//
// Corruption policy mirrors the result cache (cache/result_cache.h): any
// frame that fails validation — a truncated tail, a checksum mismatch, an
// unknown frame type, an implausible record count — raises the typed
// LogCorrupt error instead of silently yielding a short stream. A replay
// that would quietly drop records is worse than no replay at all: the whole
// point of the log is byte-identical reproduction.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "stream/record.h"

namespace vdbench::stream {

/// On-disk format version; bump on any layout change so old logs are
/// rejected loudly rather than misparsed.
inline constexpr std::uint32_t kLogFormatVersion = 2;

/// Raised by the reader for any structural damage: truncated tail,
/// checksum mismatch, bad magic/version, unknown frame type. Derives from
/// std::runtime_error so generic handlers degrade gracefully; the distinct
/// type lets callers (and tests) tell corruption from I/O failure.
struct LogCorrupt : std::runtime_error {
  explicit LogCorrupt(const std::string& what_arg)
      : std::runtime_error("report log corrupt: " + what_arg) {}
};

/// Sequential writer. Frames are appended in call order; close() flushes.
/// Construction truncates any existing file. Throws std::runtime_error
/// when the file cannot be opened or a write fails.
class ReportLogWriter {
 public:
  explicit ReportLogWriter(const std::filesystem::path& path);
  ~ReportLogWriter();

  ReportLogWriter(const ReportLogWriter&) = delete;
  ReportLogWriter& operator=(const ReportLogWriter&) = delete;

  /// Start a new stream segment. `tag` identifies the stream (the pipeline
  /// writes the declared total site count) and is verified on replay.
  void begin_segment(std::uint64_t tag);

  /// Append one chunk frame.
  void append(const ReportChunk& chunk);

  /// Flush and close the file; further writes are errors. Idempotent.
  void close();

  /// Bytes written so far (header + frames).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }

 private:
  void write_raw(std::string_view bytes);

  std::ofstream out_;
  std::filesystem::path path_;
  std::uint64_t bytes_written_ = 0;
  bool closed_ = false;
};

/// One parsed frame.
struct LogFrame {
  enum class Kind : std::uint8_t { kSegment, kChunk };
  Kind kind = Kind::kChunk;
  std::uint64_t segment_tag = 0;  ///< valid when kind == kSegment
  ReportChunk chunk;              ///< valid when kind == kChunk
};

/// Sequential reader with one-frame lookahead. Validates the header on
/// construction. Throws std::runtime_error when the file cannot be opened
/// and LogCorrupt on any structural damage.
class ReportLogReader {
 public:
  explicit ReportLogReader(const std::filesystem::path& path);

  ReportLogReader(const ReportLogReader&) = delete;
  ReportLogReader& operator=(const ReportLogReader&) = delete;

  /// Next frame, or nullopt at clean end-of-file. Throws LogCorrupt on a
  /// truncated or damaged tail — a short read is never a silent EOF.
  [[nodiscard]] std::optional<LogFrame> next();

  /// Peek without consuming; the next next()/peek() returns the same frame.
  [[nodiscard]] const LogFrame* peek();

 private:
  [[nodiscard]] std::optional<LogFrame> read_frame();

  std::ifstream in_;
  std::filesystem::path path_;
  std::optional<LogFrame> pending_;
  bool pending_valid_ = false;
};

/// FNV-1a digest of the whole file, for cache addressing of replayed runs.
/// Throws std::runtime_error when the file cannot be read.
[[nodiscard]] std::uint64_t file_digest(const std::filesystem::path& path);

}  // namespace vdbench::stream
