#pragma once
// Finer-grained breakdowns beyond the paper's width categories: who exactly
// is treated unfairly? (examples/fairness_study.cpp prints the heaviest users.)

#include <vector>

#include "core/record.hpp"
#include "metrics/fst.hpp"

namespace psched::metrics {

/// Per-user treatment summary, sorted by total demanded proc-seconds
/// descending (heavy users first).
struct UserSummary {
  UserId user = kInvalidUser;
  std::size_t jobs = 0;
  double proc_seconds = 0.0;
  double avg_wait = 0.0;
  double avg_miss = 0.0;        ///< zero without fst
  double unfair_fraction = 0.0; ///< share of the user's jobs missing FST
};
std::vector<UserSummary> user_breakdown(const SimulationResult& result,
                                        const FstResult* fst = nullptr,
                                        Time tolerance = hours(24));

}  // namespace psched::metrics
