#pragma once
// Standard user/system metrics (paper section 3.2): wait time, turnaround
// time (Eq. 1), bounded slowdown, utilization (Eq. 2), makespan (Eq. 3), and
// per-width-category turnaround breakdowns (Figures 12/18).

#include <array>
#include <cstddef>

#include "core/categories.hpp"
#include "core/record.hpp"

namespace psched::metrics {

struct StandardMetrics {
  std::size_t job_count = 0;

  // User metrics (seconds, averaged over all records).
  double avg_wait = 0.0;
  double avg_turnaround = 0.0;          // Eq. 1
  double avg_bounded_slowdown = 0.0;    // bound = 10 s, conventional
  double max_wait = 0.0;

  // System metrics.
  Time makespan = 0;          // Eq. 3: MaxCompletionTime - MinStartTime
  double utilization = 0.0;   // Eq. 2
  /// Eq. 4: the fraction of processor cycles left idle while jobs waited,
  /// the engine's online integral over makespan * system size.
  double loss_of_capacity = 0.0;

  // Per-width breakdowns (zero where a category has no jobs).
  std::array<double, kWidthCategories> avg_turnaround_by_width{};
  std::array<double, kWidthCategories> avg_wait_by_width{};
  std::array<std::size_t, kWidthCategories> jobs_by_width{};
};

/// Compute everything from a finished simulation. Throws std::invalid_argument
/// if any record is incomplete.
StandardMetrics compute_standard(const SimulationResult& result);

/// Slowdown bound used by avg_bounded_slowdown.
inline constexpr Time kSlowdownBound = 10;

}  // namespace psched::metrics
