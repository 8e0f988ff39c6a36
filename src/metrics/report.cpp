#include "metrics/report.hpp"

#include <utility>

namespace psched::metrics {

PolicyReport evaluate(const SimulationResult& result, const FstOptions& options) {
  PolicyReport report;
  report.policy = result.policy_name;
  report.standard = compute_standard(result);
  report.fairness = hybrid_fairshare_fst(result, options);
  return report;
}

util::TextTable fairness_summary_table(const std::vector<PolicyReport>& reports) {
  util::TextTable table({"policy", "percent_unfair", "unfair_any", "unfair_load", "avg_miss_s",
                         "avg_miss_unfair_s", "max_miss_s"});
  for (const PolicyReport& r : reports) {
    table.begin_row()
        .add(r.policy)
        .add_percent(r.fairness.percent_unfair)
        .add_percent(r.fairness.percent_unfair_any)
        .add_percent(r.fairness.percent_unfair_load)
        .add(r.fairness.avg_miss_all, 0)
        .add(r.fairness.avg_miss_unfair, 0)
        .add(r.fairness.max_miss, 0);
  }
  return table;
}

util::TextTable performance_summary_table(const std::vector<PolicyReport>& reports) {
  util::TextTable table({"policy", "avg_turnaround_s", "avg_wait_s", "bounded_slowdown",
                         "utilization", "loss_of_capacity", "makespan_d"});
  for (const PolicyReport& r : reports) {
    table.begin_row()
        .add(r.policy)
        .add(r.standard.avg_turnaround, 0)
        .add(r.standard.avg_wait, 0)
        .add(r.standard.avg_bounded_slowdown, 2)
        .add_percent(r.standard.utilization)
        .add_percent(r.standard.loss_of_capacity)
        .add(static_cast<double>(r.standard.makespan) / 86400.0, 1);
  }
  return table;
}

util::TextTable miss_by_width_table(const std::vector<PolicyReport>& reports) {
  std::vector<std::string> header{"width"};
  for (const PolicyReport& r : reports) header.push_back(r.policy);
  util::TextTable table(std::move(header));
  for (int w = 0; w < kWidthCategories; ++w) {
    table.begin_row().add(width_category_label(w));
    for (const PolicyReport& r : reports)
      table.add(r.fairness.avg_miss_by_width[static_cast<std::size_t>(w)], 0);
  }
  return table;
}

}  // namespace psched::metrics
