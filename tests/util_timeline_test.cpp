// Tests for the Timeline span recorder.
#include <gtest/gtest.h>

#include "util/error.h"
#include "util/timeline.h"

namespace nm {
namespace {

TEST(Timeline, SpansAndGantt) {
  Timeline tl;
  const auto t = [](double s) { return TimePoint::origin() + Duration::seconds(s); };
  tl.add_span("coordination", t(0.0), t(1.0));
  tl.add_span("migration", t(1.0), t(21.0));
  tl.add_span("linkup", t(21.0), t(51.0));
  ASSERT_EQ(tl.spans().size(), 3u);
  EXPECT_NEAR(tl.spans()[1].length().to_seconds(), 20.0, 1e-9);

  const std::string gantt = tl.to_string(40);
  EXPECT_NE(gantt.find("coordination"), std::string::npos);
  EXPECT_NE(gantt.find("migration"), std::string::npos);
  EXPECT_NE(gantt.find("#"), std::string::npos);
  EXPECT_NE(gantt.find("20.00s"), std::string::npos);
}

TEST(Timeline, ErrorsOnBadSpans) {
  Timeline tl;
  const auto t = [](double s) { return TimePoint::origin() + Duration::seconds(s); };
  EXPECT_THROW(tl.add_span("backwards", t(2.0), t(1.0)), LogicError);
}

TEST(Timeline, EmptyRenders) {
  Timeline tl;
  EXPECT_NE(tl.to_string().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace nm
