#include "json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

void Json::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
}

Json& Json::begin_object() {
  separate();
  out_ += '{';
  has_items_.push_back(false);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  has_items_.pop_back();
  return *this;
}

Json& Json::begin_array() {
  separate();
  out_ += '[';
  has_items_.push_back(false);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  has_items_.pop_back();
  return *this;
}

Json& Json::key(std::string_view name) {
  value(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

Json& Json::value(double number) {
  separate();
  out_ += format_number(number);
  return *this;
}

Json& Json::value(std::uint64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

Json& Json::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
  return *this;
}

Json& Json::value(std::string_view text) {
  separate();
  out_ += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out_ += esc;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::raw(std::string_view rendered) {
  separate();
  out_ += rendered;
  return *this;
}

}  // namespace perfbench
