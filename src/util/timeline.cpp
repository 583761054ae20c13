#include "util/timeline.h"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace nm {

void Timeline::add_span(std::string name, TimePoint begin, TimePoint end) {
  NM_CHECK(end >= begin, "span '" << name << "' ends before it begins");
  spans_.push_back(Span{std::move(name), begin, end});
}

void Timeline::render(std::ostream& os, std::size_t width) const {
  if (spans_.empty()) {
    os << "(empty timeline)\n";
    return;
  }
  TimePoint lo = spans_.front().begin;
  TimePoint hi = spans_.front().end;
  std::size_t label_w = 0;
  for (const auto& span : spans_) {
    lo = std::min(lo, span.begin);
    hi = std::max(hi, span.end);
    label_w = std::max(label_w, span.name.size());
  }
  const double range = std::max((hi - lo).to_seconds(), 1e-9);
  for (const auto& span : spans_) {
    const auto begin_col = static_cast<std::size_t>((span.begin - lo).to_seconds() / range *
                                                    static_cast<double>(width));
    auto end_col = static_cast<std::size_t>((span.end - lo).to_seconds() / range *
                                            static_cast<double>(width));
    end_col = std::max(end_col, begin_col + 1);
    os << "  " << std::left << std::setw(static_cast<int>(label_w)) << span.name << " |"
       << std::string(begin_col, ' ') << std::string(end_col - begin_col, '#')
       << std::string(width > end_col ? width - end_col : 0, ' ') << "| "
       << std::fixed << std::setprecision(2) << span.length().to_seconds() << "s\n";
  }
  os << "  " << std::string(label_w, ' ') << "  t=" << std::fixed << std::setprecision(2)
     << lo.to_seconds() << "s" << std::string(width > 16 ? width - 16 : 0, ' ')
     << "t=" << hi.to_seconds() << "s\n";
}

std::string Timeline::to_string(std::size_t width) const {
  std::ostringstream os;
  render(os, width);
  return os.str();
}

}  // namespace nm
