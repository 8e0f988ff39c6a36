#include "workload/trace_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"
#include "util/time_format.hpp"

namespace psched::workload {

CategoryCounts category_job_counts(const Workload& workload) {
  CategoryCounts counts{};
  for (const Job& job : workload.jobs) {
    const auto w = static_cast<std::size_t>(width_category(job.nodes));
    const auto l = static_cast<std::size_t>(length_category(job.runtime));
    ++counts[w][l];
  }
  return counts;
}

CategoryHours category_proc_hours(const Workload& workload) {
  CategoryHours hours{};
  for (const Job& job : workload.jobs) {
    const auto w = static_cast<std::size_t>(width_category(job.nodes));
    const auto l = static_cast<std::size_t>(length_category(job.runtime));
    hours[w][l] += job.proc_seconds() / 3600.0;
  }
  return hours;
}

std::vector<double> weekly_offered_load(const Workload& workload) {
  if (workload.jobs.empty()) return {};
  const std::int64_t last_week = util::week_index(workload.jobs.back().submit);
  std::vector<double> load(static_cast<std::size_t>(last_week) + 1, 0.0);
  const double weekly_capacity =
      static_cast<double>(workload.system_size) * static_cast<double>(util::kSecondsPerWeek);
  for (const Job& job : workload.jobs) {
    const auto week = static_cast<std::size_t>(util::week_index(job.submit));
    load[week] += job.proc_seconds() / weekly_capacity;
  }
  return load;
}

BinnedSeries binned_median(const std::vector<double>& x, const std::vector<double>& y,
                           double x_lo, double x_hi, std::size_t bins) {
  if (x.size() != y.size()) throw std::invalid_argument("binned_median: size mismatch");
  if (!(x_lo > 0.0) || !(x_hi > x_lo) || bins == 0)
    throw std::invalid_argument("binned_median: bad bin spec");
  BinnedSeries series;
  const double llo = std::log10(x_lo);
  const double lhi = std::log10(x_hi);
  std::vector<std::vector<double>> buckets(bins);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < x_lo || x[i] >= x_hi) continue;
    const double frac = (std::log10(x[i]) - llo) / (lhi - llo);
    auto bin = static_cast<std::size_t>(frac * static_cast<double>(bins));
    bin = std::min(bin, bins - 1);
    buckets[bin].push_back(y[i]);
  }
  for (std::size_t b = 0; b < bins; ++b) {
    const double frac_lo = static_cast<double>(b) / static_cast<double>(bins);
    const double frac_hi = static_cast<double>(b + 1) / static_cast<double>(bins);
    series.bin_lo.push_back(std::pow(10.0, llo + (lhi - llo) * frac_lo));
    series.bin_hi.push_back(std::pow(10.0, llo + (lhi - llo) * frac_hi));
    series.count.push_back(buckets[b].size());
    if (buckets[b].empty()) {
      series.median.push_back(0.0);
      series.p25.push_back(0.0);
      series.p75.push_back(0.0);
    } else {
      series.median.push_back(util::percentile(buckets[b], 0.50));
      series.p25.push_back(util::percentile(buckets[b], 0.25));
      series.p75.push_back(util::percentile(buckets[b], 0.75));
    }
  }
  return series;
}

double underestimate_fraction(const Workload& workload) {
  if (workload.jobs.empty()) return 0.0;
  std::size_t under = 0;
  for (const Job& job : workload.jobs)
    if (job.runtime > job.wcl) ++under;
  return static_cast<double>(under) / static_cast<double>(workload.jobs.size());
}

double power_of_two_fraction(const Workload& workload) {
  if (workload.jobs.empty()) return 0.0;
  std::size_t pow2 = 0;
  for (const Job& job : workload.jobs) {
    const auto n = static_cast<std::uint32_t>(job.nodes);
    if ((n & (n - 1)) == 0) ++pow2;
  }
  return static_cast<double>(pow2) / static_cast<double>(workload.jobs.size());
}

}  // namespace psched::workload
