// Engine edge cases: simultaneous events, full-machine jobs, zero-wait
// chains, and event-ordering guarantees.

#include <gtest/gtest.h>

#include <memory>

#include "core/policy.hpp"
#include "oracles/arrival_snapshots.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::sim {
namespace {

using test::make_job;
using test::make_workload;

TEST(EngineEdge, CompletionBeforeArrivalAtSameInstant) {
  // A job completes exactly when another arrives: the freed nodes must be
  // usable by the arrival immediately (completions drain first).
  const Workload w = make_workload(4, {
                                          make_job(0, 100, 4),
                                          make_job(100, 10, 4),  // arrives at the completion
                                      });
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_EQ(r.records[1].start, 100);
  EXPECT_EQ(r.records[1].wait(), 0);
}

TEST(EngineEdge, ManySimultaneousArrivals) {
  std::vector<Job> jobs;
  for (int i = 0; i < 32; ++i) jobs.push_back(make_job(1000, 60, 1, i % 4));
  const Workload w = make_workload(8, jobs);
  const SimulationResult r = simulate(w, EngineConfig{});
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
  // Exactly 8 can run at once: the batch drains in 4 waves.
  Time last_finish = 0;
  for (const JobRecord& rec : r.records) last_finish = std::max(last_finish, rec.finish);
  EXPECT_EQ(last_finish, 1000 + 4 * 60);
}

TEST(EngineEdge, FullMachineJobsSerialize) {
  const Workload w = make_workload(16, {
                                           make_job(0, 50, 16),
                                           make_job(0, 50, 16),
                                           make_job(0, 50, 16),
                                       });
  const SimulationResult r = simulate(w, EngineConfig{});
  std::vector<Time> starts{r.records[0].start, r.records[1].start, r.records[2].start};
  std::sort(starts.begin(), starts.end());
  EXPECT_EQ(starts, (std::vector<Time>{0, 50, 100}));
}

TEST(EngineEdge, OneSecondJobs) {
  std::vector<Job> jobs;
  for (int i = 0; i < 50; ++i) jobs.push_back(make_job(i, 1, 1, 0));
  const Workload w = make_workload(2, jobs);
  const SimulationResult r = simulate(w, EngineConfig{});
  test::expect_complete_and_causal(r);
}

TEST(EngineEdge, SnapshotGrowthWithChainedSegments) {
  // Chained segments create records mid-run; the arrival usage rows must
  // keep up, and so must the oracle's snapshots.
  EngineConfig config;
  config.policy.max_runtime = hours(10);
  config.segment_arrival = SegmentArrival::Chained;
  config.record_snapshots = true;
  const Workload w = make_workload(4, {make_job(0, hours(35), 4)});
  const SimulationResult r = reference::simulate_with_snapshots(w, config);
  ASSERT_EQ(r.records.size(), 4u);
  EXPECT_EQ(r.arrival_usage.row_of.size(), 4u);
  ASSERT_EQ(r.snapshots.size(), 4u);
  for (const ArrivalSnapshot& s : r.snapshots) EXPECT_NE(s.id, kInvalidJob);
}

TEST(EngineEdge, SingleJobMetricsAreTrivial) {
  const Workload w = make_workload(8, {make_job(123, 456, 3)});
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_EQ(r.records[0].start, 123);
  EXPECT_EQ(r.records[0].finish, 123 + 456);
  EXPECT_EQ(r.first_start, 123);
  EXPECT_EQ(r.last_finish, 123 + 456);
  EXPECT_EQ(r.makespan(), 456);
  EXPECT_DOUBLE_EQ(r.loc_proc_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.busy_proc_seconds, 3.0 * 456.0);
}

TEST(EngineEdge, LateFirstArrivalDoesNotAccrueLoc) {
  // Idle machine with an empty queue is not loss of capacity.
  const Workload w = make_workload(8, {make_job(days(10), 100, 8)});
  const SimulationResult r = simulate(w, EngineConfig{});
  EXPECT_DOUBLE_EQ(r.loc_proc_seconds, 0.0);
}

TEST(EngineEdge, WholeTraceAtSameInstantUnderConservative) {
  std::vector<Job> jobs;
  for (int i = 0; i < 24; ++i) jobs.push_back(make_job(0, 100, 1 + i % 8, i % 3));
  const Workload w = make_workload(8, jobs);
  EngineConfig config;
  config.policy.kind = PolicyKind::Conservative;
  const SimulationResult r = simulate(w, config);
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

TEST(EngineEdge, EngineStateVisibleThroughContext) {
  const Workload w = make_workload(8, {make_job(0, 100, 3)});
  EngineConfig config;
  SimulationEngine engine(w, config);
  EXPECT_EQ(engine.total_nodes(), 8);
  EXPECT_EQ(engine.free_nodes(), 8);
  engine.run();
  EXPECT_EQ(engine.free_nodes(), 8);  // all released at the end
  EXPECT_TRUE(engine.running().empty());
}

TEST(EngineEdge, SnapshotsDoNotChangeTheSchedule) {
  // Recording the arrival usage must not change the schedule. Chained
  // segments arrive with ids above jobs still to come, so the waiting ids
  // also take inserts mid-vector.
  const Workload w = workload::generate_small_workload(17, 300, 64, days(7));
  for (const PolicyConfig& policy : all_paper_policies()) {
    for (const WclEnforcement wcl :
         {WclEnforcement::Never, WclEnforcement::KillIfNeeded, WclEnforcement::Always}) {
      EngineConfig config;
      config.policy = policy;
      config.wcl_enforcement = wcl;
      config.segment_arrival = wcl == WclEnforcement::Never ? SegmentArrival::Chained
                                                            : SegmentArrival::AtOriginalSubmit;
      config.record_snapshots = true;
      const SimulationResult with = simulate(w, config);
      config.record_snapshots = false;
      const SimulationResult without = simulate(w, config);
      ASSERT_EQ(with.records.size(), without.records.size());
      for (std::size_t i = 0; i < with.records.size(); ++i) {
        EXPECT_EQ(with.records[i].start, without.records[i].start) << policy.display_name();
        EXPECT_EQ(with.records[i].finish, without.records[i].finish) << policy.display_name();
        EXPECT_EQ(with.records[i].killed_at_wcl, without.records[i].killed_at_wcl);
      }
      EXPECT_EQ(with.busy_proc_seconds, without.busy_proc_seconds);
      EXPECT_EQ(with.loc_proc_seconds, without.loc_proc_seconds);
      EXPECT_EQ(with.events_delivered, without.events_delivered);
      EXPECT_EQ(with.arrival_usage.row_of.size(), with.records.size());
      EXPECT_TRUE(without.arrival_usage.row_of.empty());
    }
  }
}

/// Emits the same list of starts at every invocation, waiting or not.
class FixedStarts final : public Scheduler {
 public:
  explicit FixedStarts(std::vector<JobId> ids) : ids_(std::move(ids)) {}
  std::string name() const override { return "fixed-starts"; }
  void on_submit(JobId) override {}
  void on_complete(JobId) override {}
  void collect_starts(std::vector<JobId>& starts) override {
    starts.insert(starts.end(), ids_.begin(), ids_.end());
  }

 private:
  std::vector<JobId> ids_;
};

TEST(EngineEdge, StartingAJobThatIsNotWaitingThrows) {
  // Only job 0 has arrived at the first invocation, and two 1-node starts
  // fit the free nodes, so the waiting-set check is what must object.
  const Workload w = make_workload(8, {make_job(0, 100, 1), make_job(50, 100, 1)});
  for (const bool snapshots : {true, false}) {
    EngineConfig config;
    config.record_snapshots = snapshots;
    EXPECT_THROW(simulate_with(w, config, std::make_unique<FixedStarts>(std::vector<JobId>{1})),
                 std::logic_error)
        << "snapshots " << snapshots;
    EXPECT_THROW(
        simulate_with(w, config, std::make_unique<FixedStarts>(std::vector<JobId>{0, 0})),
        std::logic_error)
        << "snapshots " << snapshots;
  }
}

TEST(EngineCancellation, PreTrippedTokenStopsBeforeTheFirstEvent) {
  const Workload w = make_workload(8, {make_job(0, 100, 3)});
  util::StopSource stop;
  stop.request_stop();
  EngineConfig config;
  config.stop = stop.token();
  try {
    simulate(w, config);
    FAIL() << "expected SimulationCancelled";
  } catch (const SimulationCancelled& cancelled) {
    EXPECT_EQ(cancelled.reason(), util::StopReason::Cancelled);
  }
}

TEST(EngineCancellation, ExpiredDeadlineSurfacesAsTimeout) {
  std::vector<Job> jobs;
  for (int i = 0; i < 16; ++i) jobs.push_back(make_job(i * 10, 60, 1, i % 4));
  const Workload w = make_workload(4, jobs);
  util::StopSource stop;
  stop.set_deadline_after(0.0);  // already past by the first poll
  EngineConfig config;
  config.stop = stop.token();
  try {
    simulate(w, config);
    FAIL() << "expected SimulationCancelled";
  } catch (const SimulationCancelled& cancelled) {
    EXPECT_EQ(cancelled.reason(), util::StopReason::Timeout);
  }
}

TEST(EngineCancellation, EmptyTokenCostsNothingAndNeverCancels) {
  const Workload w = make_workload(8, {make_job(0, 100, 3), make_job(5, 50, 2)});
  EngineConfig config;
  ASSERT_FALSE(config.stop.valid());  // the default: no cancellation wired
  const SimulationResult r = simulate(w, config);
  EXPECT_EQ(r.records.size(), 2u);
}

}  // namespace
}  // namespace psched::sim
