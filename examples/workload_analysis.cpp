// Workload analysis: characterize the synthetic CPlant/Ross trace the way
// the paper's section 2.2 characterizes the real one — category tables,
// offered load, over-estimation behaviour — and round-trip it through SWF.

#include <cmath>
#include <iostream>
#include <sstream>

#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/swf.hpp"
#include "workload/trace_stats.hpp"

int main() {
  using namespace psched;
  using namespace psched::workload;

  const Workload trace = generate_ross_workload({});
  std::cout << "synthetic CPlant/Ross trace: " << trace.jobs.size() << " jobs over "
            << static_cast<double>(trace.latest_submit() - trace.earliest_submit()) / 86400.0
            << " days, " << trace.system_size << " nodes\n\n";

  // Table 1 analogue.
  const CategoryCounts counts = category_job_counts(trace);
  std::vector<std::string> header{"width \\ length"};
  for (const auto& label : length_labels()) header.push_back(label);
  util::TextTable table1(header);
  for (int w = 0; w < kWidthCategories; ++w) {
    table1.begin_row().add(width_category_label(w) + " nodes");
    for (int l = 0; l < kLengthCategories; ++l)
      table1.add_int(counts[static_cast<std::size_t>(w)][static_cast<std::size_t>(l)]);
  }
  std::cout << "jobs per category:\n" << table1 << '\n';

  // Figure 3 analogue: weekly offered load.
  std::cout << "weekly offered load:\n";
  const std::vector<double> offered = weekly_offered_load(trace);
  for (std::size_t w = 0; w < offered.size(); ++w) {
    const int bars = static_cast<int>(std::lround(offered[w] * 40.0));
    std::cout << "  week " << (w < 10 ? " " : "") << w << " "
              << std::string(static_cast<std::size_t>(std::max(0, bars)), '#') << ' '
              << util::format_number(offered[w] * 100.0, 1) << "%\n";
  }

  // Figures 5-7 analogue: over-estimation behaviour.
  std::cout << "\npower-of-two node counts: "
            << util::format_number(power_of_two_fraction(trace) * 100.0, 1) << "%\n";
  std::cout << "jobs exceeding their WCL: "
            << util::format_number(underestimate_fraction(trace) * 100.0, 1) << "%\n";

  std::vector<double> runtimes, factors;
  for (const Job& job : trace.jobs) {
    runtimes.push_back(static_cast<double>(job.runtime));
    factors.push_back(static_cast<double>(job.wcl) / static_cast<double>(job.runtime));
  }
  const BinnedSeries series = binned_median(runtimes, factors, 30.0, 2.0e6, 6);
  util::TextTable overest({"runtime bin", "jobs", "median factor", "p75 factor"});
  for (std::size_t b = 0; b < series.count.size(); ++b) {
    std::ostringstream label;
    label << util::format_duration_short(series.bin_lo[b]) << " - "
          << util::format_duration_short(series.bin_hi[b]);
    overest.begin_row()
        .add(label.str())
        .add_int(static_cast<long long>(series.count[b]))
        .add(series.median[b], 1)
        .add(series.p75[b], 1);
  }
  std::cout << "\nWCL over-estimation factor vs runtime (Figure 6 analogue):\n" << overest;

  // SWF round trip.
  std::ostringstream swf;
  write_swf(swf, trace);
  std::istringstream back(swf.str());
  const SwfReadResult reread = read_swf_streaming(back);
  std::cout << "\nSWF round-trip: wrote and re-read " << reread.workload.jobs.size()
            << " jobs (skipped " << reread.skipped_records << ")\n";
  return 0;
}
