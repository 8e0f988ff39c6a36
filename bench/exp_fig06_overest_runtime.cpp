// Figure 6: over-estimation factor (WCL / runtime) vs runtime — the factor
// shrinks for longer jobs.

#include <iostream>

#include "common/experiment_env.hpp"
#include "util/table.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);
  using namespace psched::workload;

  bench::print_header("Figure 6", "over-estimation factor vs runtime",
                      "the over-estimation factor reduces for longer jobs",
                      bench::ross_trace(), bench::bench_scale());

  std::vector<double> runtimes, factors;
  for (const Job& job : bench::ross_trace().jobs) {
    runtimes.push_back(static_cast<double>(job.runtime));
    factors.push_back(static_cast<double>(job.wcl) / static_cast<double>(job.runtime));
  }
  const BinnedSeries series = binned_median(runtimes, factors, 30.0, 2.0e6, 8);

  util::TextTable table({"runtime bin", "jobs", "p25 factor", "median factor", "p75 factor"});
  for (std::size_t b = 0; b < series.count.size(); ++b) {
    table.begin_row()
        .add(util::format_duration_short(series.bin_lo[b]) + " - " +
             util::format_duration_short(series.bin_hi[b]))
        .add_int(static_cast<long long>(series.count[b]))
        .add(series.p25[b], 2)
        .add(series.median[b], 2)
        .add(series.p75[b], 2);
  }
  std::cout << table << "\nmedian factor, shortest bin vs longest populated bin: "
            << util::format_number(series.median.front(), 1) << " vs "
            << util::format_number(series.median[series.count.size() - 2], 1)
            << " (paper: decreasing)\n";
  return 0;
}
