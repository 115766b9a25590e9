// JSON reader — the read side of report/json.h.
//
// Cache hits, resume manifests, daemon requests and corpus intake (SARIF
// reports, ground-truth manifests) all parse here. The parser accepts RFC
// 8259 documents (objects, arrays, strings with the \" \\ \/ \b \f \n \r
// \t and \uXXXX escapes, finite numbers, booleans, null) whose values sit
// inside at most 64 containers, and reports malformed input as a parse
// failure rather than an exception, so a corrupted cache entry degrades to
// a miss instead of a crash.
//
// A parsed document is one array of 16-byte JsonValues. Every container's
// children are contiguous in it: an array indexes its elements in O(1),
// and an object keeps its members sorted by key (byte-wise, one member per
// distinct key, the last duplicate winning), so member() is a binary
// search. A string that holds no escape is a view into the input text;
// escaped strings are decoded into one buffer per document. \uXXXX decodes
// to UTF-8, and a high surrogate escape followed by a low one decodes to
// the pair's 4-byte sequence; a lone surrogate keeps its own 3-byte
// encoding.
//
// LIFETIME: a JsonDocument views the text it was parsed from and must not
// outlive it; parse_json refuses a temporary std::string at compile time.
// Every value, string view, array span and object view a document hands
// out stays valid until the document is destroyed. Moving the document
// does not invalidate them.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace vdbench::report {

class JsonValue;
class JsonObject;

namespace detail {
class JsonParser;

/// Frees a document buffer: munmap for a block mapped straight from the
/// kernel (`mapped_bytes` long), free() otherwise.
struct BlockDeleter {
  std::size_t mapped_bytes = 0;
  void operator()(void* block) const noexcept;
};

template <typename T>
using Block = std::unique_ptr<T[], BlockDeleter>;
}  // namespace detail

/// An array's elements, in document order.
using JsonArray = std::span<const JsonValue>;

/// What as_string(), as_array() and as_object() return: the view when the
/// value has that kind, nothing otherwise. It reads like std::optional,
/// except that * and -> yield the view itself, by value, so nothing is left
/// pointing into a destroyed temporary: `for (const JsonValue& v :
/// *x.as_array())` iterates the document.
template <typename View>
class OptionalView {
 public:
  OptionalView() = default;
  OptionalView(View view) noexcept : view_(view), present_(true) {}

  [[nodiscard]] bool has_value() const noexcept { return present_; }
  explicit operator bool() const noexcept { return present_; }
  [[nodiscard]] View operator*() const noexcept { return view_; }
  const View* operator->() const noexcept { return &view_; }

  friend bool operator==(const OptionalView& view, std::nullopt_t) noexcept {
    return !view.present_;
  }

 private:
  View view_{};
  bool present_ = false;
};

/// One object member, as JsonObject iterates them.
struct JsonMember {
  std::string_view key;
  const JsonValue& value;
};

/// One value of a parsed document: a tagged 16-byte node. An object's
/// members are kept in key order, one per distinct key (the last duplicate
/// in the text wins); member order in the text is not kept. Copies are
/// cheap handles into the same document and share its lifetime.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  JsonValue() = default;  // null

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(head_ & kKindMask);
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind() == Kind::kObject;
  }

  // Typed accessors; each returns an empty result (nullopt, an empty
  // OptionalView, nullptr) when the value has a different kind, so callers
  // can validate structure without try/catch.
  [[nodiscard]] std::optional<bool> as_bool() const noexcept {
    if (kind() != Kind::kBool) return std::nullopt;
    return payload_.boolean;
  }
  [[nodiscard]] std::optional<double> as_number() const noexcept {
    if (kind() != Kind::kNumber) return std::nullopt;
    return payload_.number;
  }
  /// The decoded string.
  [[nodiscard]] OptionalView<std::string_view> as_string() const noexcept {
    if (kind() != Kind::kString) return {};
    return std::string_view(payload_.chars, size());
  }
  [[nodiscard]] OptionalView<JsonArray> as_array() const noexcept {
    if (kind() != Kind::kArray) return {};
    return JsonArray(payload_.children, size());
  }

  /// Object member lookup; nullptr when not an object or key absent.
  [[nodiscard]] const JsonValue* member(std::string_view key) const noexcept;

  /// All object members in key order; empty when not an object. Lets
  /// callers enumerate open-ended tables (e.g. a manifest's rule map)
  /// deterministically.
  [[nodiscard]] OptionalView<JsonObject> as_object() const noexcept;

 private:
  friend class JsonObject;
  friend class detail::JsonParser;

  static constexpr std::uint64_t kKindMask = 0x7;
  // Parse-time mark on a string whose bytes are still an offset into the
  // decode buffer (see JsonParser).
  static constexpr std::uint64_t kDecoded = 0x8;
  static constexpr unsigned kSizeShift = 4;

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(head_ >> kSizeShift);
  }

  // Kind in bits 0-2, kDecoded in bit 3, and above them the size: string
  // bytes, array elements or object members.
  std::uint64_t head_ = 0;
  union Payload {
    bool boolean;
    double number;
    const char* chars;
    // An array's elements; an object's keys and values, interleaved.
    const JsonValue* children;
    // Parse time only: first child's index, or a decode-buffer offset.
    std::size_t index;
  } payload_{.index = 0};
};

static_assert(sizeof(JsonValue) == 16, "a JsonValue is one 16-byte node");
static_assert(std::is_trivially_copyable_v<JsonValue>);

/// An object's members sorted by key, one per distinct key.
class JsonObject {
 public:
  class iterator {
   public:
    [[nodiscard]] JsonMember operator*() const noexcept {
      return {key_of(*pair_), pair_[1]};
    }
    iterator& operator++() noexcept {
      pair_ += 2;
      return *this;
    }
    friend bool operator==(iterator, iterator) = default;

   private:
    friend class JsonObject;
    explicit iterator(const JsonValue* pair) noexcept : pair_(pair) {}
    const JsonValue* pair_ = nullptr;  // a key; its value follows it
  };

  JsonObject() = default;  // no members

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] iterator begin() const noexcept { return iterator(pairs_); }
  [[nodiscard]] iterator end() const noexcept {
    return iterator(pairs_ + 2 * size_);
  }

  /// The value under `key`; nullptr when absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

 private:
  friend class JsonValue;
  JsonObject(const JsonValue* pairs, std::size_t size) noexcept
      : pairs_(pairs), size_(size) {}

  static std::string_view key_of(const JsonValue& key) noexcept {
    return {key.payload_.chars, key.size()};
  }

  const JsonValue* pairs_ = nullptr;
  std::size_t size_ = 0;
};

inline const JsonValue* JsonValue::member(std::string_view key) const noexcept {
  if (kind() != Kind::kObject) return nullptr;
  return JsonObject(payload_.children, size()).find(key);
}

inline OptionalView<JsonObject> JsonValue::as_object() const noexcept {
  if (kind() != Kind::kObject) return {};
  return JsonObject(payload_.children, size());
}

/// A parsed document: owns its values and decoded strings, and views the
/// text it was parsed from (see LIFETIME above).
class JsonDocument {
 public:
  [[nodiscard]] const JsonValue& root() const noexcept {
    return values_[count_ - 1];
  }

  /// Bytes of the document's values and decoded strings that were mapped
  /// straight from the kernel (large documents), which malloc statistics
  /// do not see.
  [[nodiscard]] std::size_t mapped_bytes() const noexcept {
    return values_.get_deleter().mapped_bytes +
           strings_.get_deleter().mapped_bytes;
  }

 private:
  friend class detail::JsonParser;

  JsonDocument() = default;

  // Children precede their container, so the root is the last value.
  detail::Block<JsonValue> values_;
  std::size_t count_ = 0;
  detail::Block<char> strings_;
};

/// Where and why a parse failed. `offset` is the byte position of the
/// failure; `excerpt` is a short printable window of the input around it
/// (control and non-ASCII bytes rendered as '.'), so diagnostics can name
/// the damage in fault-spec style: "reason at offset N near '…'".
struct JsonError {
  std::size_t offset = 0;
  std::string reason;
  std::string excerpt;

  /// "<reason> at offset <offset> near '<excerpt>'".
  [[nodiscard]] std::string message() const;
};

/// Parse a complete JSON document. Returns nullopt on any syntax error,
/// trailing garbage, or nesting deeper than the depth bound. When `error`
/// is non-null it is reset, and on failure filled with the first — i.e.
/// deepest — failure the parser hit. The document views `text`.
[[nodiscard]] std::optional<JsonDocument> parse_json(std::string_view text,
                                                     JsonError* error = nullptr);

/// A document parsed from a temporary string would dangle as soon as the
/// statement ends.
template <typename Text>
  requires std::same_as<std::remove_const_t<Text>, std::string>
std::optional<JsonDocument> parse_json(Text&& text,
                                       JsonError* error = nullptr) = delete;

}  // namespace vdbench::report
