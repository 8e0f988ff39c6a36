#pragma once
// Time constants and helpers. Simulation time is int64 seconds from an
// arbitrary epoch (the trace start).

#include <cstdint>

namespace psched::util {

inline constexpr std::int64_t kSecondsPerMinute = 60;
inline constexpr std::int64_t kSecondsPerHour = 3600;
inline constexpr std::int64_t kSecondsPerDay = 86'400;
inline constexpr std::int64_t kSecondsPerWeek = 7 * kSecondsPerDay;

constexpr std::int64_t minutes(std::int64_t m) { return m * kSecondsPerMinute; }
constexpr std::int64_t hours(std::int64_t h) { return h * kSecondsPerHour; }
constexpr std::int64_t days(std::int64_t d) { return d * kSecondsPerDay; }
constexpr std::int64_t weeks(std::int64_t w) { return w * kSecondsPerWeek; }

/// Floor division that works for negative numerators (unlike C++ '/').
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  const std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

/// Week index containing second t (epoch week 0 starts at t == 0).
constexpr std::int64_t week_index(std::int64_t t) { return floor_div(t, kSecondsPerWeek); }

}  // namespace psched::util
