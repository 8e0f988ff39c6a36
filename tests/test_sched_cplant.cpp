#include "core/cplant_scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using test::make_job;
using test::make_workload;

SimulationResult run_cplant(const Workload& w, Time starvation_delay = hours(24),
                            bool bar_heavy = false, double heavy_factor = 4.0) {
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = starvation_delay;
  config.policy.bar_heavy_users = bar_heavy;
  config.policy.heavy_user_factor = heavy_factor;
  return sim::simulate(w, config);
}

TEST(CplantScheduler, NoGuaranteeBackfilling) {
  // Narrow lower-priority jobs start ahead of a wide job with no reservation.
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 6, 0),  // running until 100
                                          make_job(1, 500, 4, 1),  // wide: must wait (2 free)
                                          make_job(2, 50, 2, 2),   // narrow: starts at once
                                          make_job(3, 50, 2, 3),   // narrow: starts at 52
                                      });
  const SimulationResult r = run_cplant(w);
  EXPECT_EQ(r.records[2].start, 2);
  EXPECT_GE(r.records[1].start, 100);
  test::expect_no_overallocation(r);
}

TEST(CplantScheduler, StarvationQueuePromotionAfterDelay) {
  // A wide job starved by a stream of narrow jobs gets a reservation once it
  // has waited out the starvation delay, and then actually runs.
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, hours(30), 3, 0));  // 3 of 4 nodes busy 30 h
  jobs.push_back(make_job(10, hours(40), 4, 1));  // wide job: needs all nodes
  // A steady stream of 1-node jobs that would otherwise run forever.
  for (int i = 0; i < 200; ++i)
    jobs.push_back(make_job(20 + i * minutes(15), hours(1), 1, 2));
  const Workload w = make_workload(4, jobs);
  const SimulationResult r = run_cplant(w, hours(24));
  // Without the starvation queue the wide job would wait for a lucky drain;
  // with it, it starts within (delay + longest drain) of its submission.
  const JobRecord& wide = r.records[1];
  EXPECT_GT(wide.start, hours(24));
  EXPECT_LE(wide.start, hours(24) + hours(31));
  test::expect_no_overallocation(r);
}

TEST(CplantScheduler, LongerDelayStartsWideJobLater) {
  // A 30 h 3-node job plus a saturated 1-node stream: the 4-node job can
  // only run via a starvation-queue reservation, so the entry delay directly
  // moves its start (24 h delay -> drain at 30 h; 72 h delay -> ~72 h).
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, hours(30), 3, 0));
  jobs.push_back(make_job(10, hours(10), 4, 1));  // starved wide job
  for (int i = 0; i < 300; ++i)
    jobs.push_back(make_job(20 + i * minutes(30), hours(2), 1, 2));
  const Workload w = make_workload(4, jobs);
  const SimulationResult r24 = run_cplant(w, hours(24));
  const SimulationResult r72 = run_cplant(w, hours(72));
  EXPECT_GT(r72.records[1].start, r24.records[1].start);
  EXPECT_GE(r24.records[1].start, hours(24));
  EXPECT_GE(r72.records[1].start, hours(72));
}

TEST(CplantScheduler, HeavyUserBarKeepsJobOutOfStarvationQueue) {
  // User 0 is extremely heavy; with the bar enabled their wide job cannot
  // use the starvation queue and therefore starts later than without it.
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, days(4), 3, 0));          // user 0 burns usage
  jobs.push_back(make_job(days(2), hours(10), 4, 0));  // user 0's wide job
  for (int i = 0; i < 400; ++i)
    jobs.push_back(make_job(days(2) + i * minutes(20), hours(2), 1, 1 + i % 3));
  const Workload w = make_workload(4, jobs);
  const SimulationResult all = run_cplant(w, hours(24), /*bar_heavy=*/false);
  const SimulationResult fair = run_cplant(w, hours(24), /*bar_heavy=*/true, /*factor=*/1.0);
  EXPECT_GT(fair.records[1].start, all.records[1].start);
}

TEST(CplantScheduler, StarvationQueueIsFcfsNotFairshare) {
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = hours(1);
  // Machine saturated for three days by user 9.
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, days(3), 4, 9));
  // Two wide jobs starve: user 9 (heavy, arrives first), user 1 (light).
  jobs.push_back(make_job(100, hours(5), 4, 9));
  jobs.push_back(make_job(200, hours(5), 4, 1));
  const Workload w = make_workload(4, jobs);
  const SimulationResult r = sim::simulate(w, config);
  // Fairshare would put user 1 first; the starvation queue is FCFS, so the
  // heavy user's earlier-submitted job runs first.
  EXPECT_LT(r.records[1].start, r.records[2].start);
}

TEST(CplantScheduler, NameReflectsConfig) {
  CplantConfig c;
  EXPECT_EQ(CplantScheduler(c).name(), "cplant24.all");
  c.starvation_delay = hours(72);
  c.bar_heavy_users = true;
  EXPECT_EQ(CplantScheduler(c).name(), "cplant72.fair");
  c.starvation_delay = kNoTime;
  EXPECT_EQ(CplantScheduler(c).name(), "noguarantee");
}

TEST(CplantScheduler, DisabledStarvationNeverPromotes) {
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, hours(100), 3, 0));
  jobs.push_back(make_job(10, hours(1), 4, 1));  // wide
  for (int i = 0; i < 150; ++i)
    jobs.push_back(make_job(20 + i * minutes(30), hours(1), 1, 2));
  const Workload w = make_workload(4, jobs);
  const SimulationResult no_starve = run_cplant(w, /*starvation_delay=*/kNoTime);
  // The wide job can only start when the machine naturally drains, i.e.
  // after the 100 h job completes and no 1-node job is running.
  EXPECT_GE(no_starve.records[1].start, hours(100));
  test::expect_no_overallocation(no_starve);
  test::expect_complete_and_causal(no_starve);
}

// Boundary cases of the starvation head's reservation. On 10 nodes a
// 6-node job runs until 1,000 and a 1-node job until 500; the 9-node head
// enters the starvation queue at 101 (delay 100) and is seated at r =
// 1,000, when 10 nodes are free: one spare node beside it. All later jobs
// arrive together at 200, when 3 nodes are free, and take their turn in
// submission order.
Workload blocked_head_then(std::vector<Job> late) {
  std::vector<Job> jobs = {make_job(0, 1000, 6), make_job(0, 500, 1), make_job(1, 100, 9)};
  for (Job& job : late) jobs.push_back(job);
  return make_workload(10, jobs);
}

TEST(CplantScheduler, WindowEndingAtTheReservationStartsAndLeavesSpareAlone) {
  // Job 3 ends exactly at r, so it needs no spare node and takes none: job
  // 4, which runs past r, still gets the one spare node.
  const SimulationResult r = run_cplant(
      blocked_head_then({make_job(200, 800, 2), make_job(200, 900, 1)}), /*delay=*/100);
  EXPECT_EQ(r.records[2].start, 1000);
  EXPECT_EQ(r.records[3].start, 200);
  EXPECT_EQ(r.records[4].start, 200);
  test::expect_no_overallocation(r);
}

TEST(CplantScheduler, WindowOneSecondPastTheReservationWaits) {
  // One second longer, job 3 runs past r and is wider than the spare node.
  const SimulationResult r =
      run_cplant(blocked_head_then({make_job(200, 801, 2)}), /*delay=*/100);
  EXPECT_EQ(r.records[2].start, 1000);
  EXPECT_GE(r.records[3].start, 1000);
}

TEST(CplantScheduler, OnlyTheFirstOfTwoJobsPastTheReservationTakesTheSpareNode) {
  // Both would fit in the 3 free nodes now, but the first uses up the spare.
  const SimulationResult r = run_cplant(
      blocked_head_then({make_job(200, 900, 1), make_job(200, 900, 1)}), /*delay=*/100);
  EXPECT_EQ(r.records[2].start, 1000);
  EXPECT_EQ(r.records[3].start, 200);
  EXPECT_GE(r.records[4].start, 1000);
}

TEST(CplantScheduler, OverrunningJobsAssumedEndSetsTheReservation) {
  // The 6-node job estimates 1,000 s but runs 2,000. At 1,100 it is assumed
  // to run max(300, 100) s more, so the 9-node head is seated at r = 1,400
  // with one spare node: a 2-node job ending at 1,400 starts, one ending a
  // second later waits (until the first one's end, when r has moved on).
  const Workload w = make_workload(10, {make_job(0, 2000, 6, 0, /*wcl=*/1000),
                                        make_job(1, 100, 9), make_job(1100, 300, 2),
                                        make_job(1100, 301, 2)});
  const SimulationResult r = run_cplant(w, /*delay=*/100);
  EXPECT_EQ(r.records[1].start, 2000);
  EXPECT_EQ(r.records[2].start, 1100);
  EXPECT_EQ(r.records[3].start, 1400);
  test::expect_no_overallocation(r);
}

TEST(CplantScheduler, InvariantsOnRandomTrace) {
  const Workload w = psched::workload::generate_small_workload(23, 400, 128, days(10));
  const SimulationResult r = run_cplant(w);
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

/// A context whose running jobs are set by hand, so they can disagree with
/// the jobs the scheduler started.
class HandSetContext final : public SchedulerContext {
 public:
  Time now() const override { return 0; }
  NodeCount total_nodes() const override { return 8; }
  NodeCount free_nodes() const override { return 8 - 2 * static_cast<NodeCount>(running_.size()); }
  const Job& job(JobId id) const override { return jobs_.at(static_cast<std::size_t>(id)); }
  const std::vector<RunningView>& running() const override { return running_; }
  double user_usage(UserId) const override { return 0.0; }
  double mean_positive_usage() const override { return 0.0; }

  std::vector<Job> jobs_;
  std::vector<RunningView> running_;
};

TEST(CplantScheduler, RunningJobsItDidNotStartThrow) {
  HandSetContext context;
  Job job = make_job(0, 100, 2);
  job.id = 0;
  context.jobs_.push_back(job);
  CplantScheduler scheduler(CplantConfig{});
  scheduler.attach(context);
  scheduler.on_submit(0);
  // A running job the scheduler never started: its index has none.
  context.running_.push_back({7, 2, 0, 100});
  std::vector<JobId> starts;
  EXPECT_THROW(scheduler.collect_starts(starts), std::logic_error);
  EXPECT_THROW(scheduler.on_complete(7), std::logic_error);
  // Once the context agrees, job 0 starts; the context then forgets it.
  context.running_.clear();
  scheduler.collect_starts(starts);
  ASSERT_EQ(starts, std::vector<JobId>{0});
  starts.clear();
  EXPECT_THROW(scheduler.collect_starts(starts), std::logic_error);
}

}  // namespace
}  // namespace psched
