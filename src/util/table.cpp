#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace nm {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  NM_CHECK(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  NM_CHECK(cells.size() == header_.size(),
           "row has " << cells.size() << " cells, expected " << header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void TextTable::render(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << " " << std::left << std::setw(static_cast<int>(widths[c])) << row[c] << " |";
    }
    os << "\n";
  };
  auto print_rule = [&] {
    os << "+";
    for (const auto w : widths) {
      os << std::string(w + 2, '-') << "+";
    }
    os << "\n";
  };
  print_rule();
  print_row(header_);
  print_rule();
  for (const auto& row : rows_) {
    print_row(row);
  }
  print_rule();
}

std::string TextTable::to_string() const {
  std::ostringstream os;
  render(os);
  return os.str();
}

StackedBarChart::StackedBarChart(std::string title, std::vector<std::string> series_names)
    : title_(std::move(title)), series_(std::move(series_names)) {
  NM_CHECK(!series_.empty(), "chart needs at least one series");
}

void StackedBarChart::add_bar(std::string label, std::vector<double> segment_values) {
  NM_CHECK(segment_values.size() == series_.size(),
           "bar has " << segment_values.size() << " segments, expected " << series_.size());
  bars_.emplace_back(std::move(label), std::move(segment_values));
}

void StackedBarChart::render(std::ostream& os) const {
  static constexpr char kGlyphs[] = {'#', '=', ':', '.', '%', '+', '*', 'o'};
  os << title_ << "\n";
  os << "  legend:";
  for (std::size_t s = 0; s < series_.size(); ++s) {
    os << "  [" << kGlyphs[s % sizeof(kGlyphs)] << "] " << series_[s];
  }
  os << "\n";

  double max_total = 0.0;
  std::size_t label_w = 0;
  for (const auto& [label, segs] : bars_) {
    max_total = std::max(max_total, std::accumulate(segs.begin(), segs.end(), 0.0));
    label_w = std::max(label_w, label.size());
  }
  if (max_total <= 0.0) {
    max_total = 1.0;
  }

  for (const auto& [label, segs] : bars_) {
    os << "  " << std::left << std::setw(static_cast<int>(label_w)) << label << " |";
    std::size_t drawn = 0;
    double running = 0.0;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      running += segs[s];
      const auto target =
          static_cast<std::size_t>(running / max_total * static_cast<double>(width_) + 0.5);
      for (; drawn < target; ++drawn) {
        os << kGlyphs[s % sizeof(kGlyphs)];
      }
    }
    const double total = std::accumulate(segs.begin(), segs.end(), 0.0);
    os << " " << TextTable::num(total) << "s (";
    for (std::size_t s = 0; s < segs.size(); ++s) {
      os << (s == 0 ? "" : " + ") << TextTable::num(segs[s]);
    }
    os << ")\n";
  }
}

std::string StackedBarChart::to_string() const {
  std::ostringstream os;
  render(os);
  return os.str();
}

}  // namespace nm
