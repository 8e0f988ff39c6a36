#include "metrics/standard.hpp"

#include <algorithm>
#include <stdexcept>

namespace psched::metrics {

StandardMetrics compute_standard(const SimulationResult& result) {
  StandardMetrics m;
  m.job_count = result.records.size();
  if (m.job_count == 0) return m;

  std::array<double, kWidthCategories> tat_sum{};
  std::array<double, kWidthCategories> wait_sum{};

  double wait_total = 0.0;
  double tat_total = 0.0;
  double slowdown_total = 0.0;

  for (const JobRecord& record : result.records) {
    if (!record.completed())
      throw std::invalid_argument("compute_standard: incomplete record " +
                                  std::to_string(record.job.id));
    const auto wait = static_cast<double>(record.wait());
    const auto turnaround = static_cast<double>(record.turnaround());
    wait_total += wait;
    tat_total += turnaround;
    m.max_wait = std::max(m.max_wait, wait);
    const auto denom = static_cast<double>(std::max(record.executed_runtime(), kSlowdownBound));
    slowdown_total += std::max(1.0, turnaround / denom);

    const auto w = static_cast<std::size_t>(width_category(record.job.nodes));
    tat_sum[w] += turnaround;
    wait_sum[w] += wait;
    ++m.jobs_by_width[w];
  }

  const auto n = static_cast<double>(m.job_count);
  m.avg_wait = wait_total / n;
  m.avg_turnaround = tat_total / n;
  m.avg_bounded_slowdown = slowdown_total / n;

  for (std::size_t w = 0; w < kWidthCategories; ++w) {
    if (m.jobs_by_width[w] == 0) continue;
    const auto c = static_cast<double>(m.jobs_by_width[w]);
    m.avg_turnaround_by_width[w] = tat_sum[w] / c;
    m.avg_wait_by_width[w] = wait_sum[w] / c;
  }

  m.makespan = result.makespan();
  if (m.makespan > 0) {
    const double cell = static_cast<double>(m.makespan) * static_cast<double>(result.system_size);
    m.utilization = result.busy_proc_seconds / cell;
    m.loss_of_capacity = result.loc_proc_seconds / cell;
  }
  return m;
}

}  // namespace psched::metrics
