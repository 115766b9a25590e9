#include "stream/record.h"

#include "cache/bytes.h"

namespace vdbench::stream {

void accumulate(const ReportChunk& chunk, core::ConfusionMatrix& cm) noexcept {
  for (const SiteRecord& record : chunk.records) accumulate(record, cm);
}

void encode_records(const std::vector<SiteRecord>& records, std::string& out) {
  out.reserve(out.size() + records.size() * kRecordBytes);
  for (const SiteRecord& record : records) {
    cache::put_le(out, record.service);
    cache::put_le(out, record.site);
    out.push_back(static_cast<char>(record.truth));
    out.push_back(static_cast<char>(record.claimed));
  }
}

bool decode_records(std::string_view bytes, std::vector<SiteRecord>& out) {
  out.clear();
  if (bytes.size() % kRecordBytes != 0) return false;
  const std::size_t count = bytes.size() / kRecordBytes;
  out.reserve(count);
  const char* p = bytes.data();
  for (std::size_t i = 0; i < count; ++i, p += kRecordBytes) {
    SiteRecord record;
    record.service = cache::get_le<std::uint32_t>(p);
    record.site = cache::get_le<std::uint32_t>(p + 4);
    record.truth = static_cast<std::uint8_t>(p[8]);
    record.claimed = static_cast<std::uint8_t>(p[9]);
    out.push_back(record);
  }
  return true;
}

}  // namespace vdbench::stream
