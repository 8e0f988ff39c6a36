#include "metrics/report.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::metrics {
namespace {

std::vector<PolicyReport> two_reports() {
  const Workload w = psched::workload::generate_small_workload(113, 120, 32, days(3));
  std::vector<PolicyReport> reports;
  for (const PolicyKind kind : {PolicyKind::Cplant, PolicyKind::Conservative}) {
    sim::EngineConfig config;
    config.policy.kind = kind;
    reports.push_back(evaluate(sim::simulate(w, config)));
  }
  return reports;
}

TEST(Report, EvaluateBundlesBothMetricFamilies) {
  const std::vector<PolicyReport> reports = two_reports();
  for (const PolicyReport& r : reports) {
    EXPECT_FALSE(r.policy.empty());
    EXPECT_EQ(r.standard.job_count, 120u);
    EXPECT_EQ(r.fairness.fair_start.size(), 120u);
  }
  EXPECT_NE(reports[0].policy, reports[1].policy);
}

TEST(Report, FairnessTableHasOneRowPerPolicy) {
  const auto reports = two_reports();
  const util::TextTable table = fairness_summary_table(reports);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cell(0, 0), reports[0].policy);
  EXPECT_EQ(table.cell(1, 0), reports[1].policy);
  // Percent columns render as percentages.
  EXPECT_NE(table.cell(0, 1).find('%'), std::string::npos);
}

TEST(Report, PerformanceTableColumns) {
  const auto reports = two_reports();
  const util::TextTable table = performance_summary_table(reports);
  EXPECT_EQ(table.columns(), 7u);
  EXPECT_EQ(table.rows(), 2u);
  const std::string rendered = table.str();
  EXPECT_NE(rendered.find("avg_turnaround_s"), std::string::npos);
  EXPECT_NE(rendered.find("loss_of_capacity"), std::string::npos);
}

TEST(Report, WidthTablesHaveElevenRows) {
  const auto reports = two_reports();
  const util::TextTable table = miss_by_width_table(reports);
  EXPECT_EQ(table.rows(), static_cast<std::size_t>(kWidthCategories));
  // First column enumerates the width labels in Table-1 order.
  EXPECT_EQ(table.cell(0, 0), "1");
  EXPECT_EQ(table.cell(10, 0), "513+");
}

TEST(Report, CsvRenderingIsParseable) {
  const auto reports = two_reports();
  const std::string csv = fairness_summary_table(reports).csv();
  // header + 2 rows = 3 lines, comma-separated.
  std::size_t lines = 0;
  for (const char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(csv.find("policy,percent_unfair"), std::string::npos);
}

}  // namespace
}  // namespace psched::metrics
