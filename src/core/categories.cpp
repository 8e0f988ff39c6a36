#include "core/categories.hpp"

#include <limits>
#include <stdexcept>

namespace psched {

namespace {
// Upper inclusive node bound per width category (last is open).
constexpr std::array<NodeCount, kWidthCategories - 1> kWidthUpper = {1,  2,  4,   8,   16,
                                                                     32, 64, 128, 256, 512};
// Length bin boundaries in seconds: [0,15m) [15m,1h) [1,4h) [4,8h) [8,16h)
// [16,24h) [1d,2d) [2d,inf)
constexpr std::array<Time, kLengthCategories - 1> kLengthUpper = {
    minutes(15), hours(1), hours(4), hours(8), hours(16), hours(24), days(2)};
}  // namespace

int width_category(NodeCount nodes) {
  if (nodes < 1) throw std::invalid_argument("width_category: nodes must be >= 1");
  for (int c = 0; c < kWidthCategories - 1; ++c)
    if (nodes <= kWidthUpper[static_cast<std::size_t>(c)]) return c;
  return kWidthCategories - 1;
}

int length_category(Time runtime) {
  if (runtime < 0) throw std::invalid_argument("length_category: runtime must be >= 0");
  for (int c = 0; c < kLengthCategories - 1; ++c)
    if (runtime < kLengthUpper[static_cast<std::size_t>(c)]) return c;
  return kLengthCategories - 1;
}

const std::array<std::string, kWidthCategories>& width_labels() {
  static const std::array<std::string, kWidthCategories> labels = {
      "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65-128", "129-256", "257-512", "513+"};
  return labels;
}

const std::array<std::string, kLengthCategories>& length_labels() {
  static const std::array<std::string, kLengthCategories> labels = {
      "0-15 mins", "15-60 mins", "1-4 hrs", "4-8 hrs", "8-16 hrs", "16-24 hrs", "1-2 days",
      "2+ days"};
  return labels;
}

const std::string& width_category_label(int category) {
  if (category < 0 || category >= kWidthCategories)
    throw std::out_of_range("width_category_label: bad category");
  return width_labels()[static_cast<std::size_t>(category)];
}

WidthBounds width_category_bounds(int category, NodeCount system_size) {
  if (category < 0 || category >= kWidthCategories)
    throw std::out_of_range("width_category_bounds: bad category");
  const NodeCount lo = category == 0 ? 1 : kWidthUpper[static_cast<std::size_t>(category - 1)] + 1;
  NodeCount hi;
  if (category == kWidthCategories - 1)
    hi = system_size > 0 ? system_size : std::numeric_limits<NodeCount>::max();
  else
    hi = kWidthUpper[static_cast<std::size_t>(category)];
  return {lo, hi};
}

LengthBounds length_category_bounds(int category) {
  if (category < 0 || category >= kLengthCategories)
    throw std::out_of_range("length_category_bounds: bad category");
  const Time lo = category == 0 ? 0 : kLengthUpper[static_cast<std::size_t>(category - 1)];
  const Time hi =
      category == kLengthCategories - 1 ? kLengthOpenEnd : kLengthUpper[static_cast<std::size_t>(category)];
  return {lo, hi};
}

}  // namespace psched
