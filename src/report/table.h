// Plain-text table rendering for experiment output. Every experiment
// prints its tables through this module so the regenerated artifacts have
// a uniform, diffable format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace vdbench::report {

/// Column alignment.
enum class Align { kLeft, kRight };

/// A simple text table: header row + data rows of strings.
class Table {
 public:
  /// Create with column headers; alignment defaults to left for the first
  /// column and right for the rest (typical label + numbers layout).
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must match the header width. Throws otherwise.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t columns() const noexcept {
    return headers_.size();
  }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Render with box-drawing separators.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with the given precision; NaN renders as "-",
/// infinities as "inf"/"-inf".
[[nodiscard]] std::string format_value(double v, int precision = 3);

/// Format a double as a percentage ("12.3%"); NaN renders as "-".
[[nodiscard]] std::string format_percent(double v, int precision = 1);

}  // namespace vdbench::report
