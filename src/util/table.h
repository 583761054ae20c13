// ASCII rendering for the benchmark harness: aligned tables (Table I/II
// style) and horizontal stacked-bar charts (Figure 6/7/8 style).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace nm {

/// A simple column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with `precision` decimals.
  [[nodiscard]] static std::string num(double v, int precision = 2);

  void render(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// A horizontal stacked bar chart: one bar per row, one segment per series.
/// Mirrors the paper's stacked "overhead breakdown" figures in a terminal.
class StackedBarChart {
 public:
  StackedBarChart(std::string title, std::vector<std::string> series_names);

  void add_bar(std::string label, std::vector<double> segment_values);
  void set_width(std::size_t chars) { width_ = chars; }

  void render(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::string title_;
  std::size_t width_ = 60;
  std::vector<std::string> series_;
  std::vector<std::pair<std::string, std::vector<double>>> bars_;
};

}  // namespace nm
