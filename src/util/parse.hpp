#pragma once
// Whole-token numeric parsing for command-line flags and environment
// variables: the entire token must be a number inside [lo, hi], so "abc",
// "2x", "" and out-of-range values are rejected instead of silently becoming
// 0 or a prefix (as atoi/strtod do).

#include <charconv>
#include <cstdio>
#include <cstdlib>
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

/// Environment variable `name` parsed as a whole token within [lo, hi];
/// `fallback` when it is unset or empty. Any other value prints the variable
/// name and the expected `what` to stderr and exits 2 — a typo must not
/// silently run with a default (the same discipline as PSCHED_FAULTS).
template <typename T>
T env_number(const char* name, T fallback, const char* what, T lo,
             T hi = std::numeric_limits<T>::max()) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  const std::optional<T> value = parse_number<T>(text, lo, hi);
  if (!value) {
    std::fprintf(stderr, "psched: %s wants %s, got '%s'\n", name, what, text);
    std::exit(2);
  }
  return *value;
}

}  // namespace psched::util
