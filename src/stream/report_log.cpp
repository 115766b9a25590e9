#include "stream/report_log.h"

#include <array>
#include <cstddef>
#include <utility>

#include "cache/bytes.h"
#include "cache/hash.h"
#include "obs/registry.h"

namespace vdbench::stream {

namespace {

constexpr std::string_view kMagic = "VDRLOG01";  // 8 bytes
constexpr std::size_t kHeaderBytes = 16;
constexpr char kFrameSegment = 0x01;
constexpr char kFrameChunk = 0x02;
// Upper bound on a chunk frame's record count. Real chunks are a few
// thousand records; the cap exists so a corrupt count field fails fast
// instead of driving a multi-gigabyte allocation.
constexpr std::uint32_t kMaxFrameRecords = 1u << 24;

}  // namespace

ReportLogWriter::ReportLogWriter(const std::filesystem::path& path)
    : path_(path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_)
    throw std::runtime_error("report log: cannot open for writing: " +
                             path.string());
  std::string header(kMagic);
  cache::put_le(header, kLogFormatVersion);
  cache::put_le(header, std::uint32_t{0});  // reserved
  write_raw(header);
}

ReportLogWriter::~ReportLogWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() reports the failure.
  }
}

void ReportLogWriter::begin_segment(std::uint64_t tag) {
  std::string frame;
  frame.push_back(kFrameSegment);
  cache::put_le(frame, tag);
  cache::put_checksum(frame);
  write_raw(frame);
}

void ReportLogWriter::append(const ReportChunk& chunk) {
  if (chunk.records.size() > kMaxFrameRecords)
    throw std::invalid_argument("report log: chunk exceeds frame record cap");
  std::string frame;
  frame.reserve(1 + 4 + 8 + chunk.records.size() * kRecordBytes + 8);
  frame.push_back(kFrameChunk);
  cache::put_le(frame, static_cast<std::uint32_t>(chunk.records.size()));
  cache::put_le(frame, chunk.first_site);
  encode_records(chunk.records, frame);
  cache::put_checksum(frame);
  write_raw(frame);
}

void ReportLogWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_.flush();
  const bool ok = static_cast<bool>(out_);
  out_.close();
  if (!ok)
    throw std::runtime_error("report log: write failed: " + path_.string());
}

void ReportLogWriter::write_raw(std::string_view bytes) {
  if (closed_) throw std::logic_error("report log: write after close");
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out_)
    throw std::runtime_error("report log: write failed: " + path_.string());
  bytes_written_ += bytes.size();
  obs::count(obs::Counter::kLogBytesWritten, bytes.size());
}

ReportLogReader::ReportLogReader(const std::filesystem::path& path)
    : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_)
    throw std::runtime_error("report log: cannot open for reading: " +
                             path.string());
  std::array<char, kHeaderBytes> header{};
  in_.read(header.data(), kHeaderBytes);
  if (in_.gcount() != static_cast<std::streamsize>(kHeaderBytes)) {
    obs::count(obs::Counter::kLogCorruptions);
    throw LogCorrupt("truncated header in " + path.string());
  }
  if (std::string_view(header.data(), kMagic.size()) != kMagic) {
    obs::count(obs::Counter::kLogCorruptions);
    throw LogCorrupt("bad magic in " + path.string());
  }
  const std::uint32_t version =
      cache::get_le<std::uint32_t>(header.data() + kMagic.size());
  if (version != kLogFormatVersion) {
    obs::count(obs::Counter::kLogCorruptions);
    throw LogCorrupt("unsupported format version " + std::to_string(version) +
                     " in " + path.string());
  }
  obs::count(obs::Counter::kLogBytesRead, kHeaderBytes);
}

std::optional<LogFrame> ReportLogReader::next() {
  if (pending_valid_) {
    pending_valid_ = false;
    return std::exchange(pending_, std::nullopt);
  }
  return read_frame();
}

const LogFrame* ReportLogReader::peek() {
  if (!pending_valid_) {
    pending_ = read_frame();
    pending_valid_ = true;
  }
  return pending_ ? &*pending_ : nullptr;
}

std::optional<LogFrame> ReportLogReader::read_frame() {
  char type = 0;
  in_.read(&type, 1);
  if (in_.gcount() == 0) {
    if (in_.eof()) return std::nullopt;  // clean end-of-file
    throw std::runtime_error("report log: read failed: " + path_.string());
  }

  const auto corrupt = [this](const std::string& what) -> LogCorrupt {
    obs::count(obs::Counter::kLogCorruptions);
    return LogCorrupt(what + " in " + path_.string());
  };
  // Read exactly n bytes into `buffer` (appended); any short read past the
  // frame's type byte means the tail was cut off mid-frame.
  const auto read_exact = [&](std::string& buffer, std::size_t n) {
    const std::size_t start = buffer.size();
    buffer.resize(start + n);
    in_.read(buffer.data() + start, static_cast<std::streamsize>(n));
    if (in_.gcount() != static_cast<std::streamsize>(n))
      throw corrupt("truncated frame");
  };

  std::string frame(1, type);
  LogFrame parsed;
  if (type == kFrameSegment) {
    read_exact(frame, 8);
    parsed.kind = LogFrame::Kind::kSegment;
    parsed.segment_tag = cache::get_le<std::uint64_t>(frame.data() + 1);
  } else if (type == kFrameChunk) {
    read_exact(frame, 4 + 8);
    const std::uint32_t count = cache::get_le<std::uint32_t>(frame.data() + 1);
    if (count > kMaxFrameRecords) throw corrupt("implausible record count");
    parsed.kind = LogFrame::Kind::kChunk;
    parsed.chunk.first_site = cache::get_le<std::uint64_t>(frame.data() + 5);
    read_exact(frame, static_cast<std::size_t>(count) * kRecordBytes);
    const std::string_view payload(frame.data() + 13,
                                   static_cast<std::size_t>(count) *
                                       kRecordBytes);
    if (!decode_records(payload, parsed.chunk.records))
      throw corrupt("malformed chunk payload");
  } else {
    throw corrupt("unknown frame type " + std::to_string(type));
  }

  std::string trailer;
  read_exact(trailer, 8);
  if (cache::get_le<std::uint64_t>(trailer.data()) != cache::fnv1a64(frame))
    throw corrupt("checksum mismatch");
  obs::count(obs::Counter::kLogBytesRead, frame.size() + trailer.size());
  return parsed;
}

std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("report log: cannot open for digest: " +
                             path.string());
  std::uint64_t state = cache::kFnvOffsetBasis;
  std::array<char, 1 << 16> buffer;
  while (in) {
    in.read(buffer.data(), buffer.size());
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    state = cache::fnv1a64(
        std::string_view(buffer.data(), static_cast<std::size_t>(got)), state);
  }
  if (in.bad())
    throw std::runtime_error("report log: read failed during digest: " +
                             path.string());
  return state;
}

}  // namespace vdbench::stream
