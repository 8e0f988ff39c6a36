#include "core/categories.hpp"

#include <gtest/gtest.h>

namespace psched {
namespace {

TEST(WidthCategory, BinBoundaries) {
  EXPECT_EQ(width_category(1), 0);
  EXPECT_EQ(width_category(2), 1);
  EXPECT_EQ(width_category(3), 2);
  EXPECT_EQ(width_category(4), 2);
  EXPECT_EQ(width_category(5), 3);
  EXPECT_EQ(width_category(8), 3);
  EXPECT_EQ(width_category(16), 4);
  EXPECT_EQ(width_category(17), 5);
  EXPECT_EQ(width_category(32), 5);
  EXPECT_EQ(width_category(64), 6);
  EXPECT_EQ(width_category(128), 7);
  EXPECT_EQ(width_category(256), 8);
  EXPECT_EQ(width_category(512), 9);
  EXPECT_EQ(width_category(513), 10);
  EXPECT_EQ(width_category(4096), 10);
  EXPECT_THROW(width_category(0), std::invalid_argument);
}

TEST(LengthCategory, BinBoundaries) {
  EXPECT_EQ(length_category(0), 0);
  EXPECT_EQ(length_category(minutes(15) - 1), 0);
  EXPECT_EQ(length_category(minutes(15)), 1);
  EXPECT_EQ(length_category(hours(1) - 1), 1);
  EXPECT_EQ(length_category(hours(1)), 2);
  EXPECT_EQ(length_category(hours(4)), 3);
  EXPECT_EQ(length_category(hours(8)), 4);
  EXPECT_EQ(length_category(hours(16)), 5);
  EXPECT_EQ(length_category(hours(24)), 6);
  EXPECT_EQ(length_category(days(2) - 1), 6);
  EXPECT_EQ(length_category(days(2)), 7);
  EXPECT_EQ(length_category(days(100)), 7);
  EXPECT_THROW(length_category(-1), std::invalid_argument);
}

TEST(Categories, LabelsMatchPaperTables) {
  EXPECT_EQ(width_category_label(0), "1");
  EXPECT_EQ(width_category_label(2), "3-4");
  EXPECT_EQ(width_category_label(10), "513+");
  EXPECT_EQ(length_labels()[0], "0-15 mins");
  EXPECT_EQ(length_labels()[7], "2+ days");
  EXPECT_THROW(width_category_label(11), std::out_of_range);
}

TEST(Categories, BoundsRoundTrip) {
  // Every category's bounds map back to that category.
  for (int c = 0; c < kWidthCategories; ++c) {
    const WidthBounds b = width_category_bounds(c, 2048);
    EXPECT_EQ(width_category(b.lo), c);
    EXPECT_EQ(width_category(b.hi), c);
  }
  for (int c = 0; c < kLengthCategories; ++c) {
    const LengthBounds b = length_category_bounds(c);
    EXPECT_EQ(length_category(b.lo), c);
    EXPECT_EQ(length_category(b.hi - 1), c);
  }
}

TEST(Categories, WidthBoundsUseSystemSize) {
  const WidthBounds open = width_category_bounds(kWidthCategories - 1, 1524);
  EXPECT_EQ(open.lo, 513);
  EXPECT_EQ(open.hi, 1524);
}

TEST(Categories, LabelArraysComplete) {
  EXPECT_EQ(width_labels().size(), static_cast<std::size_t>(kWidthCategories));
  EXPECT_EQ(length_labels().size(), static_cast<std::size_t>(kLengthCategories));
}

}  // namespace
}  // namespace psched
