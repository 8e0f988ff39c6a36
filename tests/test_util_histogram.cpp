#include "util/histogram.hpp"

#include <gtest/gtest.h>

namespace psched::util {
namespace {

TEST(Histogram, BinsAndOverflow) {
  Histogram h({0.0, 1.0, 2.0, 4.0});
  h.add(0.5);
  h.add(1.0);   // boundary goes to the upper bin's [1,2)
  h.add(3.9);
  h.add(4.0);   // at last edge -> overflow
  h.add(-0.1);  // underflow
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
}

TEST(Histogram, WeightedAdds) {
  Histogram h({0.0, 10.0});
  h.add(5.0, 2.5);
  h.add(6.0, 0.5);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
}

TEST(Histogram, RejectsBadEdges) {
  EXPECT_THROW(Histogram({1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, LogEdgesSpanDecades) {
  const std::vector<double> edges = log_edges(1.0, 1000.0, 3);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_DOUBLE_EQ(edges[0], 1.0);
  EXPECT_NEAR(edges[1], 10.0, 1e-9);
  EXPECT_NEAR(edges[2], 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(edges[3], 1000.0);
  EXPECT_THROW(log_edges(0.0, 10.0, 2), std::invalid_argument);
}

TEST(Histogram2D, CountsCells) {
  Histogram2D h({0.0, 5.0, 10.0}, {0.0, 5.0, 10.0});
  h.add(1.0, 1.0);
  h.add(1.0, 1.0);
  h.add(7.0, 8.0);
  h.add(20.0, 1.0);  // out of range: dropped
  EXPECT_DOUBLE_EQ(h.count(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(0, 1), 0.0);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram2D, RenderShowsDensity) {
  Histogram2D h({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) h.add(0.5, 0.5);
  h.add(3.5, 3.5);
  const std::string art = h.render("x", "y");
  EXPECT_NE(art.find('@'), std::string::npos);  // dense cell darkest
  EXPECT_NE(art.find("x (log bins"), std::string::npos);
}

}  // namespace
}  // namespace psched::util
