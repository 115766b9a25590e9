#include "report/table.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace vdbench::report {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty())
    throw std::invalid_argument("Table: need at least one column");
  aligns_.assign(headers_.size(), Align::kRight);
  aligns_.front() = Align::kLeft;
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != headers_.size())
    throw std::invalid_argument("Table::add_row: width mismatch");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const std::vector<std::string>& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = widths[c] - row[c].size();
      os << ' ';
      if (aligns_[c] == Align::kRight) os << std::string(pad, ' ');
      os << row[c];
      if (aligns_[c] == Align::kLeft) os << std::string(pad, ' ');
      os << " |";
    }
    os << '\n';
  };
  const auto print_rule = [&] {
    os << "+";
    for (const std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };

  print_rule();
  print_row(headers_);
  print_rule();
  for (const std::vector<std::string>& row : rows_) print_row(row);
  print_rule();
}

std::string format_value(double v, int precision) {
  if (std::isnan(v)) return "-";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(precision);
  oss << v;
  return oss.str();
}

std::string format_percent(double v, int precision) {
  if (!std::isfinite(v)) return "-";
  return format_value(v * 100.0, precision) + "%";
}

}  // namespace vdbench::report
