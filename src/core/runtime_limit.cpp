#include "core/runtime_limit.hpp"

#include <algorithm>
#include <stdexcept>

namespace psched {

RuntimeLimiter::RuntimeLimiter(Time max_runtime) : max_runtime_(max_runtime) {
  if (max_runtime != kNoTime && max_runtime <= 0)
    throw std::invalid_argument("RuntimeLimiter: max_runtime must be positive or kNoTime");
}

std::int32_t RuntimeLimiter::segment_count(const Job& original) const {
  if (!enabled() || original.runtime <= max_runtime_) return 1;
  return static_cast<std::int32_t>((original.runtime + max_runtime_ - 1) / max_runtime_);
}

Job RuntimeLimiter::make_segment(const Job& original, std::int32_t index, JobId id,
                                 Time submit) const {
  const std::int32_t count = segment_count(original);
  if (index < 0 || index >= count) throw std::out_of_range("RuntimeLimiter: bad segment index");
  if (count == 1) {
    // Unsplit: the job passes through with a fresh id / submit only.
    Job job = original;
    job.id = id;
    job.submit = submit;
    job.parent = original.id;
    job.segment = 0;
    job.segment_count = 1;
    return job;
  }
  Job seg = original;
  seg.id = id;
  seg.submit = submit;
  seg.parent = original.id;
  seg.segment = index;
  seg.segment_count = count;
  const Time done_before = static_cast<Time>(index) * max_runtime_;
  seg.runtime = std::min(max_runtime_, original.runtime - done_before);
  seg.wcl = std::min(max_runtime_, std::max(original.wcl - done_before, kMinSegmentWcl));
  // A segment's WCL may never undercut its own runtime *knowledge* model —
  // users submit estimates, so we only enforce positivity, not accuracy.
  return seg;
}

std::optional<Job> RuntimeLimiter::next_segment(const Job& original, const Job& segment,
                                                Time completion, JobId id) const {
  const std::int32_t count = segment_count(original);
  if (segment.segment + 1 >= count) return std::nullopt;
  return make_segment(original, segment.segment + 1, id, completion);
}

}  // namespace psched
