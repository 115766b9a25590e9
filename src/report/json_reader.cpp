#include "report/json_reader.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <sys/mman.h>

namespace vdbench::report {

void detail::BlockDeleter::operator()(void* block) const noexcept {
  if (mapped_bytes > 0)
    ::munmap(block, mapped_bytes);
  else
    std::free(block);
}

const JsonValue* JsonObject::find(std::string_view key) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const int order = key_of(pairs_[2 * mid]).compare(key);
    if (order == 0) return &pairs_[2 * mid + 1];
    if (order < 0)
      lo = mid + 1;
    else
      hi = mid;
  }
  return nullptr;
}

namespace {

// Printable window of `text` around `offset` for error excerpts: up to 12
// bytes either side, control and non-ASCII bytes rendered as '.'.
std::string excerpt_around(std::string_view text, std::size_t offset) {
  constexpr std::size_t kRadius = 12;
  const std::size_t begin = offset > kRadius ? offset - kRadius : 0;
  const std::size_t end = std::min(text.size(), offset + kRadius);
  std::string window;
  window.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    window += (c >= 0x20 && c < 0x7F) ? static_cast<char>(c) : '.';
  }
  return window;
}

// Blocks from this size up are mapped straight from the kernel. Growing
// one remaps it without a copy, and freeing one hands its pages back at
// once. A large document left to malloc would be carved from the heap
// (glibc serves blocks below its adaptive mmap threshold, up to 32 MiB,
// from there), where a document-sized hole fragments and keeps resident
// what the next, slightly different document cannot reuse.
constexpr std::size_t kMapBytes = std::size_t{1} << 20;

// A growable array of trivially copyable T. Small blocks live on
// malloc/realloc; past kMapBytes the block is mapped (see above).
// release() hands the block over trimmed to its size.
template <typename T>
class GrowBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  GrowBuffer() = default;
  GrowBuffer(const GrowBuffer&) = delete;
  GrowBuffer& operator=(const GrowBuffer&) = delete;
  ~GrowBuffer() { detail::BlockDeleter{mapped_bytes_}(data_); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* data() noexcept { return data_; }

  /// Room for `n` more elements at the end; returns the first of them.
  T* extend(std::size_t n) {
    if (capacity_ - size_ < n)
      reallocate(std::max({size_ + n, 2 * capacity_, std::size_t{64}}));
    T* room = data_ + size_;
    size_ += n;
    return room;
  }

  /// The block, trimmed to size(); the buffer is left empty.
  [[nodiscard]] detail::Block<T> release() {
    if (size_ == 0) {
      detail::BlockDeleter{mapped_bytes_}(data_);
      data_ = nullptr;
      mapped_bytes_ = 0;
    } else if (size_ < capacity_) {
      reallocate(size_);
    }
    detail::Block<T> block(data_, detail::BlockDeleter{mapped_bytes_});
    data_ = nullptr;
    size_ = capacity_ = mapped_bytes_ = 0;
    return block;
  }

 private:
  void reallocate(std::size_t capacity) {
    const std::size_t bytes = capacity * sizeof(T);
    void* block = nullptr;
    if (mapped_bytes_ > 0) {
      block = ::mremap(data_, mapped_bytes_, bytes, MREMAP_MAYMOVE);
      if (block == MAP_FAILED) throw std::bad_alloc();
      mapped_bytes_ = bytes;
    } else if (bytes >= kMapBytes) {
      block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block == MAP_FAILED) throw std::bad_alloc();
      if (size_ > 0) std::memcpy(block, data_, size_ * sizeof(T));
      std::free(data_);
      mapped_bytes_ = bytes;
    } else {
      block = std::realloc(data_, bytes);
      if (block == nullptr) throw std::bad_alloc();
    }
    data_ = static_cast<T*>(block);
    capacity_ = capacity;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::size_t mapped_bytes_ = 0;  // 0 while the block is malloc's
};

}  // namespace

namespace detail {

// Recursive-descent parser over a string_view cursor. Failure is signalled
// by returning false up the call chain; no exceptions, no partial reads.
// When a JsonError sink is attached, the FIRST fail() — the deepest point
// the grammar reached — records the byte offset, reason and excerpt.
//
// Each parsed value is pushed onto `pending_`. When a container closes,
// its children — the top of `pending_` — move to the end of `values_` as
// one contiguous run (an object's sorted by key first), and the container
// itself is pushed in their place, recording where its run starts. So
// children always precede their container and the root is the last value.
// Until the document is complete `values_` and `strings_` may move, so
// containers hold a child index and escaped strings a decode-buffer offset;
// finish() turns both into pointers.
class JsonParser {
 public:
  JsonParser(std::string_view text, JsonError* error)
      : text_(text), error_(error) {}

  std::optional<JsonDocument> parse_document() {
    skip_ws();
    if (!parse_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail(pos_, "trailing content after document");
      return std::nullopt;
    }
    return finish();
  }

 private:
  // Matches the writer's worst case (payload > artifacts array > strings)
  // with plenty of slack; bounds stack use on adversarial input.
  static constexpr std::size_t kMaxDepth = 64;

  // One object member while its object is being sorted.
  struct Member {
    JsonValue key;
    JsonValue value;
  };

  // Record the first failure (deepest grammar point) and signal false.
  bool fail(std::size_t offset, const char* reason) {
    if (error_ != nullptr && error_->reason.empty()) {
      error_->offset = offset;
      error_->reason = reason;
      error_->excerpt = excerpt_around(text_, offset);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(char expected) {
    if (at_end() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  static JsonValue make(JsonValue::Kind kind, std::size_t size = 0) {
    JsonValue value;
    value.head_ = static_cast<std::uint64_t>(kind) |
                  (static_cast<std::uint64_t>(size) << JsonValue::kSizeShift);
    return value;
  }

  bool push_literal(std::string_view literal, JsonValue value) {
    if (!consume_literal(literal)) return fail(pos_, "invalid literal");
    pending_.push_back(value);
    return true;
  }

  bool parse_value() {
    if (depth_ > kMaxDepth) return fail(pos_, "nesting too deep");
    if (at_end()) return fail(pos_, "unexpected end of document");
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
      case 'f': {
        const bool truth = peek() == 't';
        JsonValue value = make(JsonValue::Kind::kBool);
        value.payload_.boolean = truth;
        return push_literal(truth ? "true" : "false", value);
      }
      case 'n':
        return push_literal("null", JsonValue());
      default:
        return parse_number();
    }
  }

  bool parse_object() {
    ++depth_;
    if (!consume('{')) return false;
    const std::size_t first = pending_.size();
    skip_ws();
    if (consume('}')) {
      --depth_;
      close_object(first);
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_string()) return false;
      skip_ws();
      if (!consume(':')) return fail(pos_, "expected ':' after object key");
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return fail(pos_, "expected ',' or '}' in object");
    }
    --depth_;
    close_object(first);
    return true;
  }

  bool parse_array() {
    ++depth_;
    if (!consume('[')) return false;
    const std::size_t first = pending_.size();
    skip_ws();
    if (consume(']')) {
      --depth_;
      close_array(first);
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return fail(pos_, "expected ',' or ']' in array");
    }
    --depth_;
    close_array(first);
    return true;
  }

  // Move pending_[first, end) to the end of values_ and push the array.
  void close_array(std::size_t first) {
    const std::size_t count = pending_.size() - first;
    JsonValue array = make(JsonValue::Kind::kArray, count);
    array.payload_.index = values_.size();
    if (count > 0)
      std::memcpy(values_.extend(count), pending_.data() + first,
                  count * sizeof(JsonValue));
    pending_.resize(first);
    pending_.push_back(array);
  }

  // Same for an object: pending_[first, end) alternates key and value.
  // Members are stably sorted by key and, of equal keys, only the last in
  // document order is kept.
  void close_object(std::size_t first) {
    members_.clear();
    for (std::size_t i = first; i < pending_.size(); i += 2)
      members_.push_back({pending_[i], pending_[i + 1]});
    const auto key_less = [this](const Member& a, const Member& b) {
      return key_of(a.key) < key_of(b.key);
    };
    std::stable_sort(members_.begin(), members_.end(), key_less);
    const std::size_t index = values_.size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i + 1 < members_.size() &&
          key_of(members_[i].key) == key_of(members_[i + 1].key))
        continue;  // a later duplicate wins
      JsonValue* pair = values_.extend(2);
      pair[0] = members_[i].key;
      pair[1] = members_[i].value;
      ++kept;
    }
    JsonValue object = make(JsonValue::Kind::kObject, kept);
    object.payload_.index = index;
    pending_.resize(first);
    pending_.push_back(object);
  }

  // A key's bytes while parsing: escaped keys still live at an offset.
  std::string_view key_of(const JsonValue& key) {
    if ((key.head_ & JsonValue::kDecoded) != 0)
      return {strings_.data() + key.payload_.index, key.size()};
    return {key.payload_.chars, key.size()};
  }

  // Advance past plain string bytes: up to a quote, a backslash, a control
  // byte or the end of the text.
  void skip_plain() {
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20)
      ++pos_;
  }

  // The failure at a byte skip_plain() stopped on that is not a quote or a
  // backslash.
  bool fail_in_string() {
    if (at_end()) return fail(pos_, "unterminated string");
    return fail(pos_, "unescaped control character in string");
  }

  // A string with no escape is a view of the input; the first escape
  // hands over to parse_escaped_string, which decodes into strings_.
  bool parse_string() {
    if (!consume('"')) return fail(pos_, "expected '\"'");
    const std::size_t start = pos_;
    skip_plain();
    if (consume('"')) {
      JsonValue value = make(JsonValue::Kind::kString, pos_ - 1 - start);
      value.payload_.chars = text_.data() + start;
      pending_.push_back(value);
      return true;
    }
    if (!at_end() && peek() == '\\') return parse_escaped_string(start);
    return fail_in_string();
  }

  // Called on the first backslash of the string that opened at `start`.
  bool parse_escaped_string(std::size_t start) {
    const std::size_t offset = strings_.size();
    append(text_.substr(start, pos_ - start));
    while (!consume('"')) {
      if (!consume('\\')) return fail_in_string();
      if (at_end()) return fail(pos_, "unterminated string");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': append("\""); break;
        case '\\': append("\\"); break;
        case '/': append("/"); break;
        case 'b': append("\b"); break;
        case 'f': append("\f"); break;
        case 'n': append("\n"); break;
        case 'r': append("\r"); break;
        case 't': append("\t"); break;
        case 'u':
          if (!parse_unicode_escape()) return false;
          break;
        default:
          return fail(pos_ - 1, "invalid escape in string");
      }
      const std::size_t run = pos_;
      skip_plain();
      append(text_.substr(run, pos_ - run));
    }
    JsonValue value =
        make(JsonValue::Kind::kString, strings_.size() - offset);
    value.head_ |= JsonValue::kDecoded;
    value.payload_.index = offset;
    pending_.push_back(value);
    return true;
  }

  // After "\u": one code unit, or a surrogate pair spelled as two escapes.
  // A high surrogate not followed by a low one is encoded on its own, and
  // the escape after it is read afresh (it may open a pair itself).
  bool parse_unicode_escape() {
    std::optional<unsigned> code = parse_hex4();
    if (!code) return false;
    while (*code >= 0xD800 && *code <= 0xDBFF &&
           text_.substr(pos_, 2) == "\\u") {
      pos_ += 2;
      const std::optional<unsigned> next = parse_hex4();
      if (!next) return false;
      if (*next >= 0xDC00 && *next <= 0xDFFF) {
        code = 0x10000 + ((*code - 0xD800) << 10) + (*next - 0xDC00);
        break;
      }
      append_utf8(*code);
      code = next;
    }
    append_utf8(*code);
    return true;
  }

  std::optional<unsigned> parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail(pos_, "invalid \\u escape");
      return std::nullopt;
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9')
        code += static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        code += static_cast<unsigned>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F')
        code += static_cast<unsigned>(c - 'A') + 10;
      else {
        fail(pos_ - 1, "invalid \\u escape");
        return std::nullopt;
      }
    }
    return code;
  }

  void append(std::string_view bytes) {
    if (!bytes.empty())
      std::memcpy(strings_.extend(bytes.size()), bytes.data(), bytes.size());
  }

  // Encode a code point (at most 0x10FFFF) as UTF-8. Lone surrogates are
  // encoded like any other BMP code point.
  void append_utf8(unsigned code) {
    char bytes[4];
    std::size_t n = 0;
    if (code < 0x80) {
      bytes[n++] = static_cast<char>(code);
    } else if (code < 0x800) {
      bytes[n++] = static_cast<char>(0xC0 | (code >> 6));
      bytes[n++] = static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      bytes[n++] = static_cast<char>(0xE0 | (code >> 12));
      bytes[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      bytes[n++] = static_cast<char>(0x80 | (code & 0x3F));
    } else {
      bytes[n++] = static_cast<char>(0xF0 | (code >> 18));
      bytes[n++] = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      bytes[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      bytes[n++] = static_cast<char>(0x80 | (code & 0x3F));
    }
    append(std::string_view(bytes, n));
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail(start, "expected a value");
    // RFC 8259: a leading zero may only be the sole integer digit.
    if (peek() == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
      return fail(start, "invalid number");
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-'))
      ++pos_;
    double number = 0.0;
    const auto [end, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, number);
    if (ec != std::errc() || end != text_.data() + pos_ ||
        !std::isfinite(number))
      return fail(start, "invalid number");
    JsonValue value = make(JsonValue::Kind::kNumber);
    value.payload_.number = number;
    pending_.push_back(value);
    return true;
  }

  // Append the root, trim both buffers and hand them to the document,
  // turning child indices and decode offsets into pointers.
  JsonDocument finish() {
    *values_.extend(1) = pending_.back();
    JsonDocument doc;
    doc.count_ = values_.size();
    doc.values_ = values_.release();
    doc.strings_ = strings_.release();
    JsonValue* const values = doc.values_.get();
    const char* const strings = doc.strings_.get();
    for (std::size_t i = 0; i < doc.count_; ++i) {
      JsonValue& value = values[i];
      switch (value.kind()) {
        case JsonValue::Kind::kArray:
        case JsonValue::Kind::kObject:
          value.payload_.children = values + value.payload_.index;
          break;
        case JsonValue::Kind::kString:
          if ((value.head_ & JsonValue::kDecoded) != 0) {
            value.head_ &= ~JsonValue::kDecoded;
            value.payload_.chars = strings + value.payload_.index;
          }
          break;
        default:
          break;
      }
    }
    return doc;
  }

  std::string_view text_;
  JsonError* error_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::vector<JsonValue> pending_;
  std::vector<Member> members_;
  GrowBuffer<JsonValue> values_;
  GrowBuffer<char> strings_;
};

}  // namespace detail

std::string JsonError::message() const {
  return reason + " at offset " + std::to_string(offset) + " near '" +
         excerpt + "'";
}

std::optional<JsonDocument> parse_json(std::string_view text,
                                       JsonError* error) {
  if (error != nullptr) *error = JsonError{};
  return detail::JsonParser(text, error).parse_document();
}

}  // namespace vdbench::report
