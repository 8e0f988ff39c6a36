#include "workload/transform.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace psched::workload {

Workload rescale_load(const Workload& workload, double load_factor) {
  if (!(load_factor > 0.0)) throw std::invalid_argument("rescale_load: factor must be > 0");
  WorkloadBuilder out(workload);
  const Time origin = workload.earliest_submit();
  if (origin == kNoTime) return out.build();
  for (Job& job : out.jobs) {
    const double offset = static_cast<double>(job.submit - origin) / load_factor;
    job.submit = origin + static_cast<Time>(std::llround(offset));
  }
  out.normalize();
  Workload built = out.build();
  built.validate();
  return built;
}

Workload with_estimate_factor(const Workload& workload, double factor) {
  if (factor < 1.0) throw std::invalid_argument("with_estimate_factor: factor must be >= 1");
  WorkloadBuilder out(workload);
  for (Job& job : out.jobs)
    job.wcl = std::max<Time>(1, static_cast<Time>(
        std::llround(static_cast<double>(job.runtime) * factor)));
  Workload built = out.build();
  built.validate();
  return built;
}

Workload head(const Workload& workload, std::size_t count) {
  // A normalized workload's prefix is already sorted and densely numbered, so
  // head is a truncation of the shared job table: a count, not a copy.
  return workload.truncate(std::min(count, workload.jobs.size()));
}

}  // namespace psched::workload
