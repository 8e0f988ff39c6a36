#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::sim {
namespace {

using test::make_job;
using test::make_workload;

TEST(Engine, EmptyWorkloadCompletes) {
  const Workload w{{}, 8};
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.makespan(), 0);
}

TEST(Engine, RunCallableOnce) {
  const Workload w = make_workload(4, {make_job(0, 10, 1)});
  SimulationEngine engine(w, EngineConfig{});
  engine.run();
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Engine, RecordsSnapshotsPerArrival) {
  const Workload w = make_workload(4, {make_job(0, 10, 1), make_job(5, 10, 2)});
  const SimulationResult r = simulate(w, EngineConfig{});
  ASSERT_EQ(r.snapshots.size(), 2u);
  EXPECT_EQ(r.snapshots[0].id, 0);
  EXPECT_EQ(r.snapshots[0].at, 0);
  // Snapshot includes the arriving job itself.
  ASSERT_EQ(r.snapshots[0].waiting.size(), 1u);
  EXPECT_EQ(r.snapshots[0].waiting[0].id, 0);
  // Second arrival sees the first job running.
  ASSERT_EQ(r.snapshots[1].running.size(), 1u);
  const JobRecord& running = test::record_of(r, r.snapshots[1].running[0].id);
  EXPECT_EQ(running.job.nodes, 1);
  EXPECT_EQ(test::remaining_at(running, r.snapshots[1].at), 5);
}

TEST(Engine, SnapshotOmitsJobsBehindTheArrival) {
  // User 0 fills the machine for two days, so the day-1 publish gives it
  // usage. User 0's job 1 is waiting when user 1's job 2 arrives; job 2 goes
  // ahead of it in fairshare order, so job 1 cannot affect job 2's fair
  // start and is not stored in job 2's snapshot.
  const Workload w = make_workload(2, {
                                          make_job(0, days(2), 2, /*user=*/0),
                                          make_job(days(1) + 100, hours(1), 1, /*user=*/0),
                                          make_job(days(1) + 200, hours(1), 1, /*user=*/1),
                                      });
  const SimulationResult r = simulate(w, EngineConfig{});
  ASSERT_EQ(r.snapshots.size(), 3u);
  ASSERT_EQ(r.snapshots[1].waiting.size(), 1u);
  EXPECT_EQ(r.snapshots[1].waiting[0].id, 1);
  ASSERT_EQ(r.snapshots[2].waiting.size(), 1u);
  EXPECT_EQ(r.snapshots[2].waiting[0].id, 2);
}

TEST(Engine, SnapshotsDisabled) {
  const Workload w = make_workload(4, {make_job(0, 10, 1)});
  EngineConfig config;
  config.record_snapshots = false;
  const SimulationResult r = simulate(w, config);
  EXPECT_TRUE(r.snapshots.empty());
}

TEST(Engine, FairshareAccountsRunningJobs) {
  // One user monopolizes day 1; the other user's same-day submission is
  // prioritized after the decay boundary publishes usage.
  EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = kNoTime;
  const Workload w = make_workload(
      2, {
             make_job(0, days(1) + 100, 2, /*user=*/0),
             make_job(100, hours(1), 2, /*user=*/0),
             make_job(200, hours(1), 2, /*user=*/1),
         });
  const SimulationResult r = simulate(w, config);
  // At the completion (t = 1d+100s) user 0 has a day of published usage.
  EXPECT_LT(r.records[2].start, r.records[1].start);
}

TEST(Engine, MaxRuntimeSplitsAtOriginalSubmitByDefault) {
  EngineConfig config;
  config.policy.max_runtime = hours(72);
  const Workload w = make_workload(8, {make_job(0, hours(100), 2), make_job(5, hours(10), 2)});
  const SimulationResult r = simulate(w, config);
  ASSERT_EQ(r.records.size(), 3u);  // 2 segments + 1 unsplit
  ASSERT_EQ(r.original_job_count, 2u);
  ASSERT_EQ(r.segments_of_original[0].size(), 2u);
  ASSERT_EQ(r.segments_of_original[1].size(), 1u);
  const JobRecord& seg0 = r.records[static_cast<std::size_t>(r.segments_of_original[0][0])];
  const JobRecord& seg1 = r.records[static_cast<std::size_t>(r.segments_of_original[0][1])];
  EXPECT_EQ(seg0.job.submit, 0);
  EXPECT_EQ(seg1.job.submit, 0);  // preprocessing: both at original submit
  EXPECT_EQ(seg0.job.runtime + seg1.job.runtime, hours(100));
  test::expect_no_overallocation(r);
}

TEST(Engine, MaxRuntimeChainedMode) {
  EngineConfig config;
  config.policy.max_runtime = hours(72);
  config.segment_arrival = SegmentArrival::Chained;
  const Workload w = make_workload(8, {make_job(0, hours(100), 8)});
  const SimulationResult r = simulate(w, config);
  ASSERT_EQ(r.records.size(), 2u);
  const JobRecord& seg0 = r.records[0];
  const JobRecord& seg1 = r.records[1];
  // Chained: segment 1 submitted exactly when segment 0 completes.
  EXPECT_EQ(seg1.job.submit, seg0.finish);
  EXPECT_GE(seg1.start, seg0.finish);
  EXPECT_EQ(seg0.finish - seg0.start, hours(72));
  EXPECT_EQ(seg1.finish - seg1.start, hours(28));
}

TEST(Engine, ChainedSegmentsNeverOverlap) {
  EngineConfig config;
  config.policy.kind = PolicyKind::Conservative;
  config.policy.max_runtime = hours(48);
  config.segment_arrival = SegmentArrival::Chained;
  const Workload w = psched::workload::generate_small_workload(73, 150, 32, days(4));
  const SimulationResult r = simulate(w, config);
  for (std::size_t original = 0; original < r.segments_of_original.size(); ++original) {
    const auto& segments = r.segments_of_original[original];
    for (std::size_t s = 1; s < segments.size(); ++s) {
      const JobRecord& prev = r.records[static_cast<std::size_t>(segments[s - 1])];
      const JobRecord& next = r.records[static_cast<std::size_t>(segments[s])];
      EXPECT_GE(next.start, prev.finish);
    }
  }
}

TEST(Engine, WclAlwaysTruncatesRuntime) {
  EngineConfig config;
  config.wcl_enforcement = WclEnforcement::Always;
  const Workload w = make_workload(4, {make_job(0, 1000, 2, 0, /*wcl=*/300)});
  const SimulationResult r = simulate(w, config);
  EXPECT_TRUE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 300);
}

TEST(Engine, WclNeverLetsJobsRunLong) {
  const Workload w = make_workload(4, {make_job(0, 1000, 2, 0, /*wcl=*/300)});
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_FALSE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 1000);
}

TEST(Engine, WclKillIfNeededSparesIdleMachine) {
  // Nobody wants the nodes: the over-running job survives to its runtime.
  EngineConfig config;
  config.wcl_enforcement = WclEnforcement::KillIfNeeded;
  const Workload w = make_workload(4, {make_job(0, 1000, 2, 0, /*wcl=*/300)});
  const SimulationResult r = simulate(w, config);
  EXPECT_FALSE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 1000);
}

TEST(Engine, WclKillIfNeededKillsWhenJobWaits) {
  EngineConfig config;
  config.wcl_enforcement = WclEnforcement::KillIfNeeded;
  const Workload w = make_workload(4, {
                                          make_job(0, 1000, 4, 0, /*wcl=*/300),
                                          make_job(10, 50, 4, 1),  // wants the whole machine
                                      });
  const SimulationResult r = simulate(w, config);
  EXPECT_TRUE(r.records[0].killed_at_wcl);
  EXPECT_EQ(r.records[0].finish, 300);
  EXPECT_EQ(r.records[1].start, 300);
}

TEST(Engine, OverrunningJobsBlockConservativeReservations) {
  // Covered at the scheduler level too; here we assert engine-level sanity
  // with several overrunners at once.
  EngineConfig config;
  config.policy.kind = PolicyKind::Conservative;
  WorkloadBuilder edit(psched::workload::generate_small_workload(79, 120, 24, days(3)));
  // Force a batch of under-estimates.
  for (std::size_t i = 0; i < edit.jobs.size(); i += 7)
    edit.jobs[i].wcl = edit.jobs[i].runtime / 2 + 1;
  const Workload w = edit.build();
  const SimulationResult r = simulate(w, config);
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

TEST(Engine, LocIntegralNonNegativeAndBounded) {
  const Workload w = psched::workload::generate_small_workload(83, 200, 32, days(5));
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_GE(r.loc_proc_seconds, 0.0);
  const double cell = static_cast<double>(r.makespan()) * 32.0;
  EXPECT_LE(r.loc_proc_seconds, cell);
  EXPECT_LE(r.busy_proc_seconds, cell + 1e-6);
}

TEST(Engine, RejectsStartingAJobThatIsNotWaiting) {
  // Emits batches[k] at its k-th invocation: t = 0 (job 0 arrives), then
  // t = 100 (job 1 arrives).
  class Scripted final : public Scheduler {
   public:
    explicit Scripted(std::vector<std::vector<JobId>> batches) : batches_(std::move(batches)) {}
    std::string name() const override { return "scripted"; }
    void on_submit(JobId) override {}
    void on_complete(JobId) override {}
    void collect_starts(std::vector<JobId>& starts) override {
      if (next_ < batches_.size()) starts = batches_[next_++];
    }

   private:
    std::vector<std::vector<JobId>> batches_;
    std::size_t next_ = 0;
  };

  const Workload w = make_workload(4, {make_job(0, 1000, 1), make_job(100, 1000, 1)});
  // Job 0 twice in one batch, and job 0 again while it runs.
  for (const auto& batches : {std::vector<std::vector<JobId>>{{0, 0}, {1}},
                              std::vector<std::vector<JobId>>{{0}, {0, 1}}}) {
    EXPECT_THROW(simulate_with(w, EngineConfig{}, std::make_unique<Scripted>(batches)),
                 std::logic_error);
  }
}

TEST(Engine, CustomSchedulerInjection) {
  // A trivial greedy scheduler driven through simulate_with.
  class Greedy final : public Scheduler {
   public:
    std::string name() const override { return "greedy"; }
    void on_submit(JobId id) override { waiting_.push_back(id); }
    void on_complete(JobId) override {}
    void collect_starts(std::vector<JobId>& starts) override {
      NodeCount free = ctx().free_nodes();
      std::vector<JobId> keep;
      for (const JobId id : waiting_) {
        if (ctx().job(id).nodes <= free) {
          starts.push_back(id);
          free -= ctx().job(id).nodes;
        } else {
          keep.push_back(id);
        }
      }
      waiting_ = std::move(keep);
    }

   private:
    std::vector<JobId> waiting_;
  };

  const Workload w = psched::workload::generate_small_workload(89, 100, 16, days(2));
  EngineConfig config;
  config.policy.name = "greedy";
  const SimulationResult r = simulate_with(w, config, std::make_unique<Greedy>());
  EXPECT_EQ(r.policy_name, "greedy");
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

}  // namespace
}  // namespace psched::sim
