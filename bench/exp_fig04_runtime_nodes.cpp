// Figure 4: runtime vs node-count scatter of the trace (ASCII density plot +
// distribution statistics; the paper plots raw points on log-log axes).

#include <cmath>
#include <iostream>

#include "common/experiment_env.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);

  bench::print_header(
      "Figure 4", "runtime vs nodes scatter",
      "points span 1..1e4 nodes x 1..1e8 s with strong horizontal banding at powers of two",
      bench::ross_trace(), bench::bench_scale());

  util::Histogram2D density(util::log_edges(10.0, 2.0e6, 48), util::log_edges(1.0, 2048.0, 12));
  std::vector<double> log_runtime, log_nodes;
  for (const Job& job : bench::ross_trace().jobs) {
    density.add(static_cast<double>(job.runtime), static_cast<double>(job.nodes));
    log_runtime.push_back(std::log10(static_cast<double>(job.runtime)));
    log_nodes.push_back(std::log10(static_cast<double>(job.nodes)));
  }
  std::cout << density.render("runtime 10s .. 2e6s", "nodes 1 .. 2048 (log)") << '\n';

  const double pow2 = workload::power_of_two_fraction(bench::ross_trace());
  std::cout << "power-of-two node counts: " << util::format_number(pow2 * 100.0, 1)
            << "% (paper: strong banding at standard allocations)\n";
  std::cout << "log-log rank correlation runtime~nodes: "
            << util::format_number(util::spearman(log_runtime, log_nodes), 3)
            << " (paper: widths occur at every runtime; weak correlation)\n";
  return 0;
}
