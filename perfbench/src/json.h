// Minimal compact JSON emitter for the harness's result lines and trace
// files. Numbers print in their shortest round-trip form, so a measured
// value keeps all its digits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Shortest decimal text that reads back as `value`; "null" when not finite.
[[nodiscard]] std::string format_number(double value);

class Json {
 public:
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& key(std::string_view name);
  Json& value(double number);
  Json& value(std::uint64_t number);
  Json& value(bool flag);
  Json& value(std::string_view text);
  Json& value(const char* text) { return value(std::string_view(text)); }
  /// Splice an already-rendered JSON value.
  Json& raw(std::string_view rendered);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void separate();

  std::string out_;
  std::vector<bool> has_items_;
  bool after_key_ = false;
};

}  // namespace perfbench
