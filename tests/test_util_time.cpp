#include "util/time_format.hpp"

#include <gtest/gtest.h>

namespace psched::util {
namespace {

TEST(TimeUnits, Constants) {
  EXPECT_EQ(minutes(2), 120);
  EXPECT_EQ(hours(2), 7200);
  EXPECT_EQ(days(1), 86400);
  EXPECT_EQ(weeks(1), 604800);
}

TEST(FloorDiv, NegativeNumerators) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(-4, 2), -2);
  EXPECT_EQ(floor_div(0, 5), 0);
}

TEST(DayWeekIndex, Boundaries) {
  EXPECT_EQ(week_index(0), 0);
  EXPECT_EQ(week_index(604799), 0);
  EXPECT_EQ(week_index(604800), 1);
  EXPECT_EQ(week_index(-1), -1);
}

}  // namespace
}  // namespace psched::util
