#pragma once
// Maximum-runtime limits (paper section 5.1): jobs longer than a threshold
// must be submitted as several <= threshold segments, giving the scheduler a
// very coarse form of preemption. CPlant users already checkpointed, so the
// paper treats the split as cheap.
//
// The simulation engine submits the segments (EngineConfig::segment_arrival):
// by default all at the original job's submit time, the paper's "breaking
// longer jobs up into several 72 hour segments", or chained, segment k+1 the
// moment segment k completes (checkpoint/restart). The splitting arithmetic
// lives here so it can be unit-tested in isolation.

#include <optional>

#include "core/job.hpp"
#include "core/types.hpp"

namespace psched {

class RuntimeLimiter {
 public:
  /// max_runtime == kNoTime disables splitting entirely.
  explicit RuntimeLimiter(Time max_runtime);

  bool enabled() const { return max_runtime_ != kNoTime; }

  /// Number of segments `original` will be split into (1 = unsplit).
  std::int32_t segment_count(const Job& original) const;

  /// Build segment `index` (0-based) of `original`, submitted at `submit`
  /// with the fresh id `id`. Throws std::out_of_range for invalid index.
  ///
  /// Runtime of segment k: min(max, runtime - k*max).
  /// WCL of segment k:     min(max, max(wcl - k*max, kMinSegmentWcl)), so
  /// under-estimating users still submit sane limits for trailing segments.
  Job make_segment(const Job& original, std::int32_t index, JobId id, Time submit) const;

  /// The segment to submit when `segment` (a segment of `original`)
  /// completes at `completion`; nullopt when it was the last.
  std::optional<Job> next_segment(const Job& original, const Job& segment, Time completion,
                                  JobId id) const;

  static constexpr Time kMinSegmentWcl = minutes(10);

 private:
  Time max_runtime_;
};

}  // namespace psched
