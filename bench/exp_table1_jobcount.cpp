// Table 1: number of jobs in each length/width category (generated trace vs
// the paper's published counts).

#include <iostream>

#include "common/experiment_env.hpp"
#include "util/table.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);
  using namespace psched::workload;

  bench::print_header("Table 1", "job count per width x length category",
                      "generated counts equal the published table cell-by-cell at scale 1.0",
                      bench::ross_trace(), bench::bench_scale());

  const CategoryCounts counts = category_job_counts(bench::ross_trace());
  const CountTable& paper = ross_table1_job_counts();

  std::vector<std::string> header{"width \\ length"};
  for (const auto& label : length_labels()) header.push_back(label);
  util::TextTable ours(header);
  util::TextTable reference(header);
  long long total = 0, paper_total = 0, matching = 0, cells = 0;
  for (int w = 0; w < kWidthCategories; ++w) {
    ours.begin_row().add(width_category_label(w) + " nodes");
    reference.begin_row().add(width_category_label(w) + " nodes");
    for (int l = 0; l < kLengthCategories; ++l) {
      const auto wi = static_cast<std::size_t>(w);
      const auto li = static_cast<std::size_t>(l);
      ours.add_int(counts[wi][li]);
      reference.add_int(paper[wi][li]);
      total += counts[wi][li];
      paper_total += paper[wi][li];
      ++cells;
      if (counts[wi][li] == paper[wi][li]) ++matching;
    }
  }
  std::cout << "measured (synthetic trace):\n" << ours
            << "\npaper Table 1 (reference):\n" << reference
            << "\ntotals: measured " << total << " vs paper " << paper_total << "; " << matching
            << "/" << cells << " cells identical\n";
  return 0;
}
