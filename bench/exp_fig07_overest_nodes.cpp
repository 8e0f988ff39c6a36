// Figure 7: over-estimation factor vs node count — essentially unrelated.

#include <iostream>

#include "common/experiment_env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);
  using namespace psched::workload;

  bench::print_header("Figure 7", "over-estimation factor vs nodes",
                      "the over-estimation factor appears unrelated to the node selection",
                      bench::ross_trace(), bench::bench_scale());

  std::vector<double> nodes, factors;
  for (const Job& job : bench::ross_trace().jobs) {
    nodes.push_back(static_cast<double>(job.nodes));
    factors.push_back(static_cast<double>(job.wcl) / static_cast<double>(job.runtime));
  }
  const BinnedSeries series = binned_median(nodes, factors, 1.0, 2048.0, 8);

  util::TextTable table({"nodes bin", "jobs", "p25 factor", "median factor", "p75 factor"});
  for (std::size_t b = 0; b < series.count.size(); ++b) {
    if (series.count[b] == 0) continue;
    table.begin_row()
        .add(util::format_number(series.bin_lo[b], 0) + " - " +
             util::format_number(series.bin_hi[b], 0))
        .add_int(static_cast<long long>(series.count[b]))
        .add(series.p25[b], 2)
        .add(series.median[b], 2)
        .add(series.p75[b], 2);
  }
  std::cout << table << "\nSpearman correlation factor~nodes: "
            << util::format_number(util::spearman(nodes, factors), 3)
            << " (paper: no visible relationship; expect |rho| near 0)\n";
  return 0;
}
