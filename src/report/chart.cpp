#include "report/chart.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "report/table.h"

namespace vdbench::report {

namespace {

constexpr std::string_view kGlyphs = "*o+x#@%&";

}  // namespace

LineChart::LineChart(std::string title, std::string x_label,
                     std::string y_label)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      y_label_(std::move(y_label)) {}

void LineChart::set_y_range(double lo, double hi) {
  if (!(lo < hi))
    throw std::invalid_argument("LineChart::set_y_range: lo < hi required");
  fixed_y_ = true;
  y_lo_ = lo;
  y_hi_ = hi;
}

void LineChart::add_series(Series series) {
  if (series.x.size() != series.y.size() || series.x.empty())
    throw std::invalid_argument("LineChart::add_series: bad series data");
  series_.push_back(std::move(series));
}

void LineChart::print(std::ostream& os) const {
  if (series_.empty())
    throw std::logic_error("LineChart::print: no series");

  const auto tx = [&](double x) { return log_x_ ? std::log10(x) : x; };

  double x_lo = std::numeric_limits<double>::infinity();
  double x_hi = -std::numeric_limits<double>::infinity();
  double y_lo = y_lo_, y_hi = y_hi_;
  if (!fixed_y_) {
    y_lo = std::numeric_limits<double>::infinity();
    y_hi = -std::numeric_limits<double>::infinity();
  }
  for (const Series& s : series_) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if (!std::isfinite(s.y[i])) continue;
      const double x = tx(s.x[i]);
      if (!std::isfinite(x)) continue;
      x_lo = std::min(x_lo, x);
      x_hi = std::max(x_hi, x);
      if (!fixed_y_) {
        y_lo = std::min(y_lo, s.y[i]);
        y_hi = std::max(y_hi, s.y[i]);
      }
    }
  }
  if (!std::isfinite(x_lo) || !std::isfinite(y_lo))
    throw std::logic_error("LineChart::print: no finite points");
  if (x_hi == x_lo) x_hi = x_lo + 1.0;
  if (y_hi == y_lo) y_hi = y_lo + 1.0;

  std::vector<std::string> grid(height_, std::string(width_, ' '));
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const char glyph = kGlyphs[si % kGlyphs.size()];
    const Series& s = series_[si];
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if (!std::isfinite(s.y[i])) continue;
      const double x = tx(s.x[i]);
      if (!std::isfinite(x)) continue;
      const double fx = (x - x_lo) / (x_hi - x_lo);
      const double fy = (s.y[i] - y_lo) / (y_hi - y_lo);
      if (fy < 0.0 || fy > 1.0) continue;  // outside a fixed range
      const auto col = static_cast<std::size_t>(
          std::llround(fx * static_cast<double>(width_ - 1)));
      const auto row = static_cast<std::size_t>(
          std::llround((1.0 - fy) * static_cast<double>(height_ - 1)));
      grid[row][col] = glyph;
    }
  }

  os << title_ << "\n";
  const std::string y_hi_label = format_value(y_hi, 2);
  const std::string y_lo_label = format_value(y_lo, 2);
  const std::size_t label_w = std::max(y_hi_label.size(), y_lo_label.size());
  for (std::size_t r = 0; r < height_; ++r) {
    std::string label(label_w, ' ');
    if (r == 0) label = std::string(label_w - y_hi_label.size(), ' ') + y_hi_label;
    if (r == height_ - 1)
      label = std::string(label_w - y_lo_label.size(), ' ') + y_lo_label;
    os << label << " |" << grid[r] << "|\n";
  }
  os << std::string(label_w, ' ') << " +" << std::string(width_, '-') << "+\n";
  os << std::string(label_w, ' ') << "  " << x_label_
     << (log_x_ ? " (log scale)" : "") << ": " << format_value(log_x_ ? std::pow(10.0, x_lo) : x_lo, 3)
     << " .. " << format_value(log_x_ ? std::pow(10.0, x_hi) : x_hi, 3)
     << "   y: " << y_label_ << "\n";
  os << std::string(label_w, ' ') << "  legend:";
  for (std::size_t si = 0; si < series_.size(); ++si)
    os << "  " << kGlyphs[si % kGlyphs.size()] << "=" << series_[si].name;
  os << "\n";
}

Heatmap::Heatmap(std::string title, std::vector<std::string> row_labels,
                 std::vector<std::string> col_labels,
                 std::vector<std::vector<double>> values)
    : title_(std::move(title)),
      row_labels_(std::move(row_labels)),
      col_labels_(std::move(col_labels)),
      values_(std::move(values)) {
  if (values_.size() != row_labels_.size())
    throw std::invalid_argument("Heatmap: row label/value count mismatch");
  for (const std::vector<double>& row : values_)
    if (row.size() != col_labels_.size())
      throw std::invalid_argument("Heatmap: ragged values");
}

void Heatmap::set_range(double lo, double hi) {
  if (!(lo < hi))
    throw std::invalid_argument("Heatmap::set_range: lo < hi required");
  lo_ = lo;
  hi_ = hi;
}

void Heatmap::print(std::ostream& os) const {
  static constexpr std::string_view kRamp = " .:-=+*#%@";
  std::size_t label_w = 0;
  for (const std::string& l : row_labels_) label_w = std::max(label_w, l.size());

  os << title_ << "\n";
  // Column header: first letters vertically would be unreadable; print an
  // index header and a legend below.
  os << std::string(label_w, ' ') << "  ";
  for (std::size_t c = 0; c < col_labels_.size(); ++c)
    os << static_cast<char>('A' + (c % 26));
  os << "\n";
  for (std::size_t r = 0; r < values_.size(); ++r) {
    os << row_labels_[r] << std::string(label_w - row_labels_[r].size(), ' ')
       << "  ";
    for (std::size_t c = 0; c < values_[r].size(); ++c) {
      const double v = values_[r][c];
      if (!std::isfinite(v)) {
        os << '?';
        continue;
      }
      const double f =
          std::clamp((v - lo_) / (hi_ - lo_), 0.0, 1.0);
      const auto idx = static_cast<std::size_t>(
          std::llround(f * static_cast<double>(kRamp.size() - 1)));
      os << kRamp[idx];
    }
    os << "  " << static_cast<char>('A' + (r % 26)) << "\n";
  }
  os << "scale: '" << kRamp.front() << "'=" << format_value(lo_, 2) << " .. '"
     << kRamp.back() << "'=" << format_value(hi_, 2) << "\n";
  os << "columns:";
  for (std::size_t c = 0; c < col_labels_.size(); ++c)
    os << " " << static_cast<char>('A' + (c % 26)) << "=" << col_labels_[c];
  os << "\n";
}

}  // namespace vdbench::report
