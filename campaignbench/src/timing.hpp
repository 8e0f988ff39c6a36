#pragma once
// Host-time reads for the campaign benchmark. The library keeps its only
// clock read in src/obs/clock.cpp and offers microseconds; a median
// collect_starts call takes about a microsecond, so the benchmark reads the
// monotonic clock itself, at nanosecond resolution — here and nowhere else.
// Host time only ever annotates measurements; it never feeds a simulation.

#include <cstdint>

namespace campaignbench {

/// Monotonic nanoseconds since an arbitrary process-local epoch.
std::uint64_t now_ns();

/// Monotonic seconds (same epoch as now_ns).
double now_s();

/// User + system CPU seconds consumed so far by every thread of this process.
double process_cpu_s();

}  // namespace campaignbench
