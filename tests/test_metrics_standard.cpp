#include "metrics/standard.hpp"

#include <gtest/gtest.h>

#include "metrics/weekly.hpp"
#include "oracles/loc_integrals.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::metrics {
namespace {

using test::make_job;
using test::make_workload;
using test::run_policy;

SimulationResult hand_result() {
  // Two jobs on a 4-node machine, fully deterministic outcomes.
  SimulationResult r;
  r.system_size = 4;
  JobRecord a;
  a.job = make_job(0, 100, 2);
  a.job.id = 0;
  a.start = 0;
  a.finish = 100;
  JobRecord b;
  b.job = make_job(10, 50, 4);
  b.job.id = 1;
  b.start = 100;
  b.finish = 150;
  r.records = {a, b};
  r.first_start = 0;
  r.last_finish = 150;
  r.busy_proc_seconds = 2.0 * 100 + 4.0 * 50;
  // While b waited (10..100), 2 nodes idle and b wanted 4: min(4, 2) = 2.
  r.loc_proc_seconds = 2.0 * 90;
  return r;
}

TEST(StandardMetrics, HandComputedValues) {
  const StandardMetrics m = compute_standard(hand_result());
  EXPECT_EQ(m.job_count, 2u);
  EXPECT_DOUBLE_EQ(m.avg_wait, (0.0 + 90.0) / 2.0);
  EXPECT_DOUBLE_EQ(m.avg_turnaround, (100.0 + 140.0) / 2.0);  // Eq. 1
  EXPECT_EQ(m.makespan, 150);                                 // Eq. 3
  EXPECT_DOUBLE_EQ(m.utilization, 400.0 / (150.0 * 4.0));     // Eq. 2
  EXPECT_DOUBLE_EQ(m.loss_of_capacity, 180.0 / (150.0 * 4.0));  // Eq. 4
  EXPECT_DOUBLE_EQ(m.max_wait, 90.0);
}

TEST(StandardMetrics, BoundedSlowdown) {
  const StandardMetrics m = compute_standard(hand_result());
  // a: TAT 100, runtime 100 -> 1. b: TAT 140, runtime 50 -> 2.8.
  EXPECT_DOUBLE_EQ(m.avg_bounded_slowdown, (1.0 + 2.8) / 2.0);
}

TEST(StandardMetrics, WidthBreakdowns) {
  const StandardMetrics m = compute_standard(hand_result());
  EXPECT_EQ(m.jobs_by_width[1], 1u);  // the 2-node job
  EXPECT_EQ(m.jobs_by_width[2], 1u);  // the 4-node job
  EXPECT_DOUBLE_EQ(m.avg_turnaround_by_width[1], 100.0);
  EXPECT_DOUBLE_EQ(m.avg_turnaround_by_width[2], 140.0);
  EXPECT_DOUBLE_EQ(m.avg_turnaround_by_width[0], 0.0);
}

TEST(StandardMetrics, IncompleteRecordThrows) {
  SimulationResult r = hand_result();
  r.records[1].finish = kNoTime;
  EXPECT_THROW(compute_standard(r), std::invalid_argument);
}

TEST(StandardMetrics, EmptyResult) {
  const StandardMetrics m = compute_standard(SimulationResult{});
  EXPECT_EQ(m.job_count, 0u);
  EXPECT_DOUBLE_EQ(m.utilization, 0.0);
}

TEST(Loc, EngineIntegralMatchesRecordSweep) {
  const Workload w = psched::workload::generate_small_workload(17, 250, 48, days(6));
  for (const PolicyKind kind : {PolicyKind::Fcfs, PolicyKind::Easy, PolicyKind::Cplant,
                                PolicyKind::Conservative, PolicyKind::ConservativeDynamic}) {
    const SimulationResult r = run_policy(w, kind);
    EXPECT_NEAR(recompute_loc_integral(r), r.loc_proc_seconds, 1e-6)
        << "policy kind " << static_cast<int>(kind);
    EXPECT_NEAR(recompute_busy_integral(r), r.busy_proc_seconds, 1e-6);
  }
}

TEST(Loc, WorkConservingScheduleHasZeroLoc) {
  // Jobs that always fit immediately: the queue is never non-empty while
  // nodes are idle.
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 8),
                                          make_job(200, 100, 8),
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Fcfs);
  EXPECT_DOUBLE_EQ(r.loc_proc_seconds, 0.0);
  EXPECT_DOUBLE_EQ(compute_standard(r).loss_of_capacity, 0.0);
}

TEST(Loc, FcfsBlockingCreatesLoc) {
  // The classic FCFS pathology: head doesn't fit, capacity idles.
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 6),
                                          make_job(1, 100, 4),  // blocks with 2 idle
                                          make_job(2, 50, 2),   // could run but FCFS forbids
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Fcfs);
  EXPECT_GT(r.loc_proc_seconds, 0.0);
  const double loc = compute_standard(r).loss_of_capacity;
  EXPECT_GT(loc, 0.0);
  EXPECT_LT(loc, 1.0);
}

TEST(Weekly, SeriesSumsMatchTotals) {
  const Workload w = psched::workload::generate_small_workload(19, 150, 32, days(20));
  const SimulationResult r = run_policy(w, PolicyKind::Easy);
  const WeeklySeries series = weekly_series(r);
  double offered = 0.0, used = 0.0;
  for (const double v : series.offered_load) offered += v;
  for (const double v : series.utilization) used += v;
  const double weekly_capacity = 32.0 * static_cast<double>(util::kSecondsPerWeek);
  EXPECT_NEAR(offered * weekly_capacity, r.busy_proc_seconds, 1.0);
  EXPECT_NEAR(used * weekly_capacity, r.busy_proc_seconds, 1.0);
}

TEST(Weekly, UtilizationNeverExceedsOne) {
  const Workload w = psched::workload::generate_small_workload(29, 400, 16, days(14));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant);
  const WeeklySeries series = weekly_series(r);
  for (std::size_t i = 0; i + 1 < series.utilization.size(); ++i)
    EXPECT_LE(series.utilization[i], 1.0 + 1e-9) << "week " << i;
}

}  // namespace
}  // namespace psched::metrics
