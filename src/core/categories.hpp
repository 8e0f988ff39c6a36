#pragma once
// The width (nodes) and length (runtime) category bins of the paper's
// Tables 1-2 and the per-width breakdowns of Figures 10, 12, 16 and 18.

#include <array>
#include <string>

#include "core/types.hpp"

namespace psched {

inline constexpr int kWidthCategories = 11;
inline constexpr int kLengthCategories = 8;

/// 0:"1", 1:"2", 2:"3-4", 3:"5-8", 4:"9-16", 5:"17-32", 6:"33-64",
/// 7:"65-128", 8:"129-256", 9:"257-512", 10:"513+"  (nodes >= 1)
int width_category(NodeCount nodes);

/// 0:"0-15 mins", 1:"15-60 mins", 2:"1-4 hrs", 3:"4-8 hrs", 4:"8-16 hrs",
/// 5:"16-24 hrs", 6:"1-2 days", 7:"2+ days"  (runtime >= 0 seconds)
int length_category(Time runtime);

const std::string& width_category_label(int category);

/// Inclusive node bounds of a width category; the last category's upper bound
/// is reported as the given system size (or INT32_MAX if system_size <= 0).
struct WidthBounds {
  NodeCount lo;
  NodeCount hi;
};
WidthBounds width_category_bounds(int category, NodeCount system_size = 0);

/// Runtime bounds [lo, hi) in seconds of a length category; the last
/// category's hi is a large sentinel (kLengthOpenEnd).
struct LengthBounds {
  Time lo;
  Time hi;
};
inline constexpr Time kLengthOpenEnd = days(365);
LengthBounds length_category_bounds(int category);

/// All labels, in bin order (convenient for table headers).
const std::array<std::string, kWidthCategories>& width_labels();
const std::array<std::string, kLengthCategories>& length_labels();

}  // namespace psched
