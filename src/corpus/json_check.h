// Shared validation helpers for the corpus readers (sarif.cpp,
// manifest.cpp): parse a document with diagnostics, then pull required /
// optional members out of it, converting every violation into a typed
// CorpusError whose message names the failing element (and, for structural
// damage, the exact byte offset). Internal to src/corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "corpus/error.h"
#include "report/json_reader.h"

namespace vdbench::corpus::detail {

/// Parse `text` or throw CorpusError("<kind> corrupt: <reason> at offset N
/// near '…'") carrying the structural break's byte offset. The document
/// views `text`.
inline report::JsonDocument parse_document(std::string_view text,
                                           std::string_view kind) {
  report::JsonError error;
  std::optional<report::JsonDocument> doc = report::parse_json(text, &error);
  if (!doc)
    throw CorpusError(std::string(kind) + " corrupt: " + error.message(),
                      error.offset);
  if (!doc->root().is_object())
    throw CorpusError(std::string(kind) + " corrupt: document root is not "
                      "an object at offset 0",
                      0);
  return std::move(*doc);
}

/// An element's path as error messages name it: "document" for the root,
/// then "ecosystems[2].sites[7].uri". A level only points at its parent
/// and its name, so building one costs nothing; the text is rendered only
/// when an error is about to be raised. A Path must not outlive its parent
/// or the key it names, so levels are only built on named paths.
class Path {
 public:
  Path() = default;  // the document root

  [[nodiscard]] Path key(std::string_view name) const& noexcept {
    return Path(this, name, kNoIndex);
  }
  [[nodiscard]] Path index(std::size_t i) const& noexcept {
    return Path(this, {}, i);
  }
  // A level built on a temporary would dangle once the statement ends.
  Path key(std::string_view name) const&& = delete;
  Path index(std::size_t i) const&& = delete;

  [[nodiscard]] std::string str() const {
    if (parent_ == nullptr) return "document";
    if (index_ != kNoIndex)
      return parent_->str() + "[" + std::to_string(index_) + "]";
    if (parent_->parent_ == nullptr) return std::string(name_);
    return parent_->str() + "." + std::string(name_);
  }

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  Path(const Path* parent, std::string_view name, std::size_t index) noexcept
      : parent_(parent), name_(name), index_(index) {}

  const Path* parent_ = nullptr;
  std::string_view name_;
  std::size_t index_ = kNoIndex;
};

/// Semantic violation (missing member, wrong type, out-of-range value):
/// no byte offset is available from the parsed tree, so the message names
/// the failing element path instead.
[[noreturn]] inline void fail_invalid(std::string_view kind,
                                      const std::string& detail) {
  throw CorpusError(std::string(kind) + " invalid: " + detail, 0);
}

inline const report::JsonValue& require_member(const report::JsonValue& obj,
                                               std::string_view key,
                                               std::string_view kind,
                                               const Path& path) {
  const report::JsonValue* member = obj.member(key);
  if (member == nullptr)
    fail_invalid(kind, path.str() + " is missing required member '" +
                           std::string(key) + "'");
  return *member;
}

inline std::string_view require_string(const report::JsonValue& value,
                                       std::string_view kind,
                                       const Path& path) {
  const report::OptionalView<std::string_view> s = value.as_string();
  if (!s) fail_invalid(kind, path.str() + " must be a string");
  return *s;
}

inline double require_number(const report::JsonValue& value,
                             std::string_view kind, const Path& path) {
  const std::optional<double> n = value.as_number();
  if (!n) fail_invalid(kind, path.str() + " must be a number");
  return *n;
}

/// Positive integral value fitting a uint32 (SARIF line/column numbers).
inline std::uint32_t require_line(const report::JsonValue& value,
                                  std::string_view kind, const Path& path) {
  const double n = require_number(value, kind, path);
  if (n < 1.0 || n > 4294967295.0 ||
      n != static_cast<double>(static_cast<std::uint64_t>(n)))
    fail_invalid(kind, path.str() + " must be a positive integer");
  return static_cast<std::uint32_t>(n);
}

inline report::JsonArray require_array(const report::JsonValue& value,
                                       std::string_view kind,
                                       const Path& path) {
  const report::OptionalView<report::JsonArray> items = value.as_array();
  if (!items) fail_invalid(kind, path.str() + " must be an array");
  return *items;
}

}  // namespace vdbench::corpus::detail
