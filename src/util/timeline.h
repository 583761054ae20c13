// Timeline: records named spans on the simulated clock and renders an
// ASCII Gantt chart — the observability surface for migration episodes
// (which phase ran when, what overlapped with what).
#pragma once

#include <algorithm>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/units.h"

namespace nm {

class Timeline {
 public:
  struct Span {
    std::string name;
    TimePoint begin;
    TimePoint end;
    [[nodiscard]] Duration length() const { return end - begin; }
  };

  /// Records an already-measured span.
  void add_span(std::string name, TimePoint begin, TimePoint end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// ASCII Gantt: one row per span, proportional bars on a shared axis.
  void render(std::ostream& os, std::size_t width = 60) const;
  [[nodiscard]] std::string to_string(std::size_t width = 60) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace nm
