#include "net/protocol.h"

#include <cmath>

#include "report/json.h"
#include "report/json_reader.h"
#include "stats/env.h"
#include "stats/parallel.h"

namespace vdbench::net {

namespace {

// Non-negative integer member with a default; false on a wrong-typed or
// non-integral value so malformed requests are rejected, not rounded.
bool read_count(const report::JsonValue& doc, std::string_view key,
                std::uint64_t& out) {
  const report::JsonValue* member = doc.member(key);
  if (member == nullptr) return true;  // absent = keep default
  const std::optional<double> number = member->as_number();
  if (!number.has_value() || *number < 0.0 ||
      *number != std::floor(*number) || *number > 9.0e15)
    return false;
  out = static_cast<std::uint64_t>(*number);
  return true;
}

bool read_flag(const report::JsonValue& doc, std::string_view key,
               bool& out) {
  const report::JsonValue* member = doc.member(key);
  if (member == nullptr) return true;
  const std::optional<bool> flag = member->as_bool();
  if (!flag.has_value()) return false;
  out = *flag;
  return true;
}

bool read_string(const report::JsonValue& doc, std::string_view key,
                 std::string& out) {
  const report::JsonValue* member = doc.member(key);
  if (member == nullptr) return true;
  const report::OptionalView<std::string_view> text = member->as_string();
  if (!text) return false;
  out = *text;
  return true;
}

// Full-range u64 member, carried as a decimal string on the wire because
// the reader parses JSON numbers as doubles and would silently corrupt
// integers above 2^53 (a real concern for --seed, which accepts any u64).
// A numeric value is still accepted when it is exactly representable.
bool read_u64(const report::JsonValue& doc, std::string_view key,
              std::uint64_t& out) {
  const report::JsonValue* member = doc.member(key);
  if (member == nullptr) return true;  // absent = keep default
  if (const report::OptionalView<std::string_view> text =
          member->as_string()) {
    const std::optional<std::uint64_t> value = stats::parse_uint64(*text);
    if (value) out = *value;
    return value.has_value();
  }
  return read_count(doc, key, out);
}

}  // namespace

std::string encode_request(const StudyRequest& request) {
  report::JsonWriter json;
  json.begin_object()
      .field("experiments", request.experiments)
      .field("threads", static_cast<std::uint64_t>(request.threads))
      .field("study_seed", std::to_string(request.study_seed))
      .field("use_cache", request.use_cache)
      .field("refresh", request.refresh)
      .field("quiet", request.quiet)
      .field("retries", static_cast<std::uint64_t>(request.retries))
      .field("timeout_sec", request.timeout_sec)
      .field("want_manifest", request.want_manifest)
      .end_object();
  return json.str();
}

std::optional<StudyRequest> decode_request(std::string_view json) {
  const std::optional<report::JsonDocument> parsed = report::parse_json(json);
  if (!parsed.has_value() || !parsed->root().is_object()) return std::nullopt;
  const report::JsonValue* doc = &parsed->root();
  StudyRequest request;
  std::uint64_t threads = 0;
  std::uint64_t retries = 0;
  if (!read_string(*doc, "experiments", request.experiments) ||
      !read_count(*doc, "threads", threads) ||
      !read_u64(*doc, "study_seed", request.study_seed) ||
      !read_flag(*doc, "use_cache", request.use_cache) ||
      !read_flag(*doc, "refresh", request.refresh) ||
      !read_flag(*doc, "quiet", request.quiet) ||
      !read_count(*doc, "retries", retries) ||
      !read_flag(*doc, "want_manifest", request.want_manifest))
    return std::nullopt;
  if (const report::JsonValue* member = doc->member("timeout_sec");
      member != nullptr) {
    const std::optional<double> number = member->as_number();
    if (!number.has_value() || *number < 0.0 || !std::isfinite(*number))
      return std::nullopt;
    request.timeout_sec = *number;
  }
  // A larger pool could fail part-way through its constructor and end the
  // daemon for every client; the session gets status "usage" instead.
  if (request.experiments.empty() || threads > stats::kMaxThreads)
    return std::nullopt;
  request.threads = static_cast<std::size_t>(threads);
  request.retries = static_cast<std::size_t>(retries);
  return request;
}

std::string encode_status(const StudyStatus& status) {
  report::JsonWriter json;
  json.begin_object()
      .field("status", status.status)
      .field("exit_code", status.exit_code)
      .field("error", status.error)
      .end_object();
  return json.str();
}

std::optional<StudyStatus> decode_status(std::string_view json) {
  const std::optional<report::JsonDocument> parsed = report::parse_json(json);
  if (!parsed.has_value() || !parsed->root().is_object()) return std::nullopt;
  const report::JsonValue* doc = &parsed->root();
  StudyStatus status;
  std::uint64_t exit_code = 0;
  if (!read_string(*doc, "status", status.status) ||
      !read_count(*doc, "exit_code", exit_code) ||
      !read_string(*doc, "error", status.error))
    return std::nullopt;
  if (status.status.empty() || exit_code > 255) return std::nullopt;
  status.exit_code = static_cast<int>(exit_code);
  return status;
}

}  // namespace vdbench::net
