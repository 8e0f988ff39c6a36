// Table 2: processor-hours in each length/width category (calibrated within
// bin bounds, so cells match approximately rather than exactly).

#include <cmath>
#include <iostream>

#include "common/experiment_env.hpp"
#include "util/table.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);
  using namespace psched::workload;

  bench::print_header(
      "Table 2", "processor-hours per width x length category",
      "per-cell proc-hours track the published table (runtime rescaling within bins); "
      "the (513+, 4-8h) cell is inconsistent in the paper itself (0 jobs, 3183 hours)",
      bench::ross_trace(), bench::bench_scale());

  const CategoryHours hours = category_proc_hours(bench::ross_trace());
  const HoursTable& paper = ross_table2_proc_hours();

  std::vector<std::string> header{"width \\ length"};
  for (const auto& label : length_labels()) header.push_back(label);
  util::TextTable ours(header);
  util::TextTable reference(header);
  double total = 0.0, paper_total = 0.0, abs_err = 0.0;
  for (int w = 0; w < kWidthCategories; ++w) {
    ours.begin_row().add(width_category_label(w) + " nodes");
    reference.begin_row().add(width_category_label(w) + " nodes");
    for (int l = 0; l < kLengthCategories; ++l) {
      const auto wi = static_cast<std::size_t>(w);
      const auto li = static_cast<std::size_t>(l);
      ours.add(hours[wi][li], 0);
      reference.add(paper[wi][li], 0);
      total += hours[wi][li];
      paper_total += paper[wi][li];
      abs_err += std::abs(hours[wi][li] - paper[wi][li]);
    }
  }
  std::cout << "measured (synthetic trace):\n" << ours
            << "\npaper Table 2 (reference):\n" << reference
            << "\ntotals: measured " << util::format_number(total, 0) << " vs paper "
            << util::format_number(paper_total, 0) << " proc-hours ("
            << util::format_number(total / paper_total * 100.0, 1)
            << "% of paper); mean absolute cell error "
            << util::format_number(abs_err / 88.0, 0) << " proc-hours\n";
  return 0;
}
