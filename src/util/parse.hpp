#pragma once
// Whole-token numeric parsing for command-line flags: the entire token must
// be a number inside [lo, hi], so "abc", "2x", "" and out-of-range values are
// rejected instead of silently becoming 0 or a prefix (as atoi/strtod do).

#include <charconv>
#include <limits>
#include <optional>
#include <string_view>

namespace psched::util {

template <typename T>
std::optional<T> parse_number(std::string_view text, T lo = std::numeric_limits<T>::lowest(),
                              T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // The negated comparison also rejects NaN.
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

}  // namespace psched::util
