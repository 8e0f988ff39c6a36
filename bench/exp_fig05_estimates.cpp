// Figure 5: user wall-clock-limit estimates vs actual runtimes.

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
      "Figure 5", "WCL estimate vs actual runtime",
      "all mass on or above the WCL = runtime diagonal (over-estimation), with a thin "
      "tail below it (jobs that ran past their limit)",
      bench::ross_trace(), bench::bench_scale());

  util::Histogram2D density(util::log_edges(10.0, 2.0e6, 48), util::log_edges(10.0, 4.0e6, 14));
  std::vector<double> runtimes, wcls;
  for (const Job& job : bench::ross_trace().jobs) {
    density.add(static_cast<double>(job.runtime), static_cast<double>(job.wcl));
    runtimes.push_back(static_cast<double>(job.runtime));
    wcls.push_back(static_cast<double>(job.wcl));
  }
  std::cout << density.render("runtime 10s .. 2e6s", "WCL 10s .. 4e6s (log)") << '\n';

  const double under = workload::underestimate_fraction(bench::ross_trace());
  std::cout << "jobs with runtime > WCL: " << util::format_number(under * 100.0, 2)
            << "% (paper: a few jobs run past their limits when nodes are idle)\n";
  std::cout << "Spearman correlation WCL~runtime: "
            << util::format_number(util::spearman(runtimes, wcls), 3)
            << " (estimates track runtimes but with large over-estimation scatter)\n";
  return 0;
}
