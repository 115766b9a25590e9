// ASCII line charts and heatmaps so the bench binaries can regenerate the
// paper's *figures* (not only tables) directly in terminal output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace vdbench::report {

/// A named data series for a line chart (x and y must be equal length;
/// NaN y-values are skipped when plotting).
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Multi-series ASCII line chart. Each series gets a distinct glyph; a
/// legend, y-axis labels and x-range are printed around the plot area.
class LineChart {
 public:
  LineChart(std::string title, std::string x_label, std::string y_label);

  /// Plot x on a log10 axis (for prevalence sweeps spanning decades).
  void set_log_x(bool log_x) noexcept { log_x_ = log_x; }
  /// Fix the y-range instead of auto-scaling.
  void set_y_range(double lo, double hi);

  /// Add a series; throws std::invalid_argument on x/y length mismatch or
  /// empty data.
  void add_series(Series series);

  /// Render. Throws std::logic_error when no series were added.
  void print(std::ostream& os) const;

 private:
  std::string title_, x_label_, y_label_;
  std::vector<Series> series_;
  bool log_x_ = false;
  bool fixed_y_ = false;
  double y_lo_ = 0.0, y_hi_ = 1.0;
  std::size_t width_ = 72, height_ = 20;
};

/// ASCII heatmap over a labelled square (or rectangular) value grid;
/// values are mapped onto a shade ramp, NaN renders blank. Used for the
/// metric ranking-agreement matrix (figure E6).
class Heatmap {
 public:
  /// values[r][c]; row/column label counts must match. Throws on ragged
  /// or mismatched input.
  Heatmap(std::string title, std::vector<std::string> row_labels,
          std::vector<std::string> col_labels,
          std::vector<std::vector<double>> values);

  /// Value range mapped to the ramp (defaults to [-1, 1] for tau).
  void set_range(double lo, double hi);

  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> row_labels_, col_labels_;
  std::vector<std::vector<double>> values_;
  double lo_ = -1.0, hi_ = 1.0;
};

}  // namespace vdbench::report
