// Figure 3: weekly offered load vs achieved utilization under the baseline
// CPlant policy.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/experiment_env.hpp"
#include "metrics/weekly.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);

  bench::print_header(
      "Figure 3", "weekly offered load and actual utilization (baseline policy)",
      "bursty offered load oscillating well above and below 100%, with high-load weeks "
      "followed by low-load weeks; utilization tracks offered load, capped near 100%",
      bench::ross_trace(), bench::bench_scale());

  const sim::ExperimentResult& baseline =
      bench::runner().run(paper_policy(PaperPolicy::Cplant24NomaxAll));
  const metrics::WeeklySeries series = metrics::weekly_series(baseline.simulation);

  util::TextTable table({"week", "offered_load", "utilization", "offered (40 cols = 200%)"});
  for (std::size_t w = 0; w < series.offered_load.size(); ++w) {
    const int bars =
        std::clamp(static_cast<int>(std::lround(series.offered_load[w] * 20.0)), 0, 40);
    table.begin_row()
        .add_int(static_cast<long long>(w))
        .add_percent(series.offered_load[w], 1)
        .add_percent(series.utilization[w], 1)
        .add(std::string(static_cast<std::size_t>(bars), '#'));
  }
  std::cout << table;

  double peak = 0.0;
  std::size_t overload_weeks = 0;
  for (std::size_t w = 0; w + 1 < series.offered_load.size(); ++w) {
    peak = std::max(peak, series.offered_load[w]);
    if (series.offered_load[w] > 1.0) ++overload_weeks;
  }
  std::cout << "\npeak offered load " << util::format_number(peak * 100.0, 1) << "%, "
            << overload_weeks << " weeks above 100% (paper: many weeks over 100%, peaks ~170%)\n";
  return 0;
}
