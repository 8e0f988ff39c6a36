#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "sim/policy_fst.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace psched::sim {
namespace {

/// Exact (bitwise for doubles) equality of two reports. Parallel sweeps must
/// be indistinguishable from serial ones at the byte level: the only
/// thread-count-dependent code path writes integer fair-start times to
/// per-index slots, and every floating-point reduction runs serially.
void expect_identical_report(const metrics::PolicyReport& a, const metrics::PolicyReport& b) {
  EXPECT_EQ(a.policy, b.policy);

  EXPECT_EQ(a.standard.job_count, b.standard.job_count);
  EXPECT_EQ(a.standard.avg_wait, b.standard.avg_wait);
  EXPECT_EQ(a.standard.avg_turnaround, b.standard.avg_turnaround);
  EXPECT_EQ(a.standard.avg_bounded_slowdown, b.standard.avg_bounded_slowdown);
  EXPECT_EQ(a.standard.max_wait, b.standard.max_wait);
  EXPECT_EQ(a.standard.makespan, b.standard.makespan);
  EXPECT_EQ(a.standard.utilization, b.standard.utilization);
  EXPECT_EQ(a.standard.loss_of_capacity, b.standard.loss_of_capacity);
  EXPECT_EQ(a.standard.avg_turnaround_by_width, b.standard.avg_turnaround_by_width);
  EXPECT_EQ(a.standard.avg_wait_by_width, b.standard.avg_wait_by_width);
  EXPECT_EQ(a.standard.jobs_by_width, b.standard.jobs_by_width);

  EXPECT_EQ(a.fairness.fair_start, b.fairness.fair_start);
  EXPECT_EQ(a.fairness.miss, b.fairness.miss);
  EXPECT_EQ(a.fairness.percent_unfair, b.fairness.percent_unfair);
  EXPECT_EQ(a.fairness.percent_unfair_any, b.fairness.percent_unfair_any);
  EXPECT_EQ(a.fairness.percent_unfair_load, b.fairness.percent_unfair_load);
  EXPECT_EQ(a.fairness.avg_miss_all, b.fairness.avg_miss_all);
  EXPECT_EQ(a.fairness.avg_miss_unfair, b.fairness.avg_miss_unfair);
  EXPECT_EQ(a.fairness.max_miss, b.fairness.max_miss);
  EXPECT_EQ(a.fairness.avg_miss_by_width, b.fairness.avg_miss_by_width);
  EXPECT_EQ(a.fairness.jobs_by_width, b.fairness.jobs_by_width);
  EXPECT_EQ(a.fairness.unfair_by_width, b.fairness.unfair_by_width);
}

void expect_identical_records(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].start, b.records[i].start) << "record " << i;
    EXPECT_EQ(a.records[i].finish, b.records[i].finish) << "record " << i;
    EXPECT_EQ(a.records[i].killed_at_wcl, b.records[i].killed_at_wcl) << "record " << i;
  }
}

TEST(ExperimentRunner, RunAllCoversEveryPolicy) {
  const Workload w = psched::workload::generate_small_workload(5, 80, 32, days(2));
  ExperimentRunner runner(w);
  const std::vector<PolicyConfig> policies = all_paper_policies();
  const std::vector<ExperimentResult> results = runner.run_all(policies);
  ASSERT_EQ(results.size(), 9u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Input order, one result per policy.
    EXPECT_EQ(results[i].policy.canonical_key(), policies[i].canonical_key());
    EXPECT_EQ(results[i].report.policy, policies[i].display_name());
    EXPECT_EQ(results[i].simulation.original_job_count, w.jobs.size());
    EXPECT_GT(results[i].report.standard.avg_turnaround, 0.0);
  }
}

TEST(ExperimentRunner, ReportsAreInternallyConsistent) {
  const Workload w = psched::workload::generate_small_workload(7, 120, 32, days(3));
  ExperimentRunner runner(w);
  const ExperimentResult& r = runner.run(paper_policy(PaperPolicy::ConsNomax));
  EXPECT_EQ(r.report.fairness.fair_start.size(), r.simulation.records.size());
  EXPECT_EQ(r.report.standard.job_count, r.simulation.records.size());
}

TEST(ExperimentRunner, RunAllIsDeterministicAcrossJobCounts) {
  const Workload w = psched::workload::generate_small_workload(23, 150, 64, days(3));
  const std::vector<PolicyConfig> policies = all_paper_policies();

  ExperimentRunner serial(w);
  const auto base = serial.run_all(policies, /*jobs=*/1);

  for (const std::size_t jobs : {std::size_t{2}, util::global_pool().size() + 2}) {
    ExperimentRunner parallel_runner(w);
    const auto parallel = parallel_runner.run_all(policies, jobs);
    ASSERT_EQ(parallel.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      expect_identical_report(base[i].report, parallel[i].report);
      expect_identical_records(base[i].simulation, parallel[i].simulation);
    }
  }
}

// One shared runner driven from many threads at once: run() is const and
// lock-free, so every thread's simulation of the same policy must produce
// the same report and records (the tools/run_sanitize.sh thread pass runs
// this under ThreadSanitizer).
TEST(ExperimentRunner, ConcurrentDuplicateStress) {
  const Workload w = psched::workload::generate_small_workload(29, 60, 32, days(1));
  const ExperimentRunner runner(w);
  const PolicyConfig policy = paper_policy(PaperPolicy::Cplant24NomaxFair);

  constexpr std::size_t kThreads = 8;
  std::vector<std::optional<ExperimentResult>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { per_thread[t] = runner.run(policy); });
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 1; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    expect_identical_report(per_thread[0]->report, per_thread[t]->report);
    expect_identical_records(per_thread[0]->simulation, per_thread[t]->simulation);
  }
}

// A config whose scheduler construction throws reports its error to every
// caller, through run() and through the sweep alike.
TEST(ExperimentRunner, BrokenConfigErrorIsCachedAndRethrown) {
  const Workload w = psched::workload::generate_small_workload(31, 20, 16, days(1));
  ExperimentRunner runner(w);
  PolicyConfig broken;
  broken.kind = PolicyKind::Depth;
  broken.reservation_depth = 0;  // DepthScheduler rejects < 1
  EXPECT_THROW(runner.run(broken), std::invalid_argument);
  EXPECT_THROW(runner.run(broken), std::invalid_argument);
  EXPECT_THROW(runner.run_all({broken}, 2), std::invalid_argument);
}

// run_all rethrows the lowest-index error, not whichever lane failed first.
// Cell 0 fails only after a full simulation (the policy-knowledge FST rejects
// its max runtime) while cell 1 fails at scheduler construction, so on four
// lanes cell 1's error usually comes first in time; cell 0's must win anyway.
TEST(ExperimentRunner, RunAllRethrowsLowestIndexError) {
  const Workload w = psched::workload::generate_small_workload(61, 60, 16, days(1));
  metrics::FstOptions fst_options;
  fst_options.policy_knowledge = true;
  ExperimentRunner runner(w, {}, fst_options);
  PolicyConfig broken;
  broken.kind = PolicyKind::Depth;
  broken.reservation_depth = 0;  // DepthScheduler rejects < 1
  const std::vector<PolicyConfig> policies = {paper_policy(PaperPolicy::Cplant24MaxAll), broken,
                                              paper_policy(PaperPolicy::Cplant24NomaxAll),
                                              paper_policy(PaperPolicy::ConsNomax)};
  for (int round = 0; round < 40; ++round) {
    try {
      runner.run_all(policies, 4);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("max_runtime"), std::string::npos)
          << "round " << round << ": " << error.what();
    }
  }
}

TEST(ExperimentRunner, RunAllSurfacesATrippedTokenAsCancellation) {
  const Workload w = psched::workload::generate_small_workload(41, 40, 16, days(1));
  ExperimentRunner runner(w);
  util::StopSource stop;
  stop.request_stop();
  EXPECT_THROW(runner.run_all(all_paper_policies(), 2, stop.token()), SimulationCancelled);
  // And the runner is still usable afterwards.
  EXPECT_EQ(runner.run_all(all_paper_policies(), 2).size(), 9u);
}

// run_isolated: a failing cell yields an error outcome, the siblings still
// produce results identical to an undisturbed sweep.
TEST(ExperimentRunner, RunIsolatedContainsFailuresToTheirCell) {
  const Workload w = psched::workload::generate_small_workload(43, 40, 16, days(1));
  PolicyConfig broken;
  broken.kind = PolicyKind::Depth;
  broken.reservation_depth = 0;
  const std::vector<PolicyConfig> policies = {paper_policy(PaperPolicy::Cplant24NomaxAll), broken,
                                              paper_policy(PaperPolicy::ConsNomax)};

  ExperimentRunner runner(w);
  IsolatedRunOptions options;
  options.jobs = 2;
  const std::vector<CellOutcome> outcomes = runner.run_isolated(policies, options);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].result);
  EXPECT_FALSE(outcomes[1].result);
  ASSERT_TRUE(outcomes[1].error != nullptr);
  EXPECT_THROW(std::rethrow_exception(outcomes[1].error), std::invalid_argument);
  ASSERT_TRUE(outcomes[2].result);

  ExperimentRunner undisturbed(w);
  expect_identical_report(outcomes[2].result->report,
                          undisturbed.run(paper_policy(PaperPolicy::ConsNomax)).report);
}

TEST(ExperimentRunner, RunIsolatedHaltsAfterAFailureWhenNotKeepingGoing) {
  const Workload w = psched::workload::generate_small_workload(47, 40, 16, days(1));
  PolicyConfig broken;
  broken.kind = PolicyKind::Depth;
  broken.reservation_depth = 0;
  ExperimentRunner runner(w);
  IsolatedRunOptions options;
  options.jobs = 1;  // serial, so the halt decision is deterministic
  options.keep_going = false;
  const std::vector<CellOutcome> outcomes =
      runner.run_isolated({broken, paper_policy(PaperPolicy::ConsNomax)}, options);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].attempted());
  EXPECT_FALSE(outcomes[1].attempted());  // never pulled
}

TEST(ExperimentRunner, RunIsolatedReportsEveryAttemptThroughOnFinish) {
  const Workload w = psched::workload::generate_small_workload(53, 40, 16, days(1));
  ExperimentRunner runner(w);
  IsolatedRunOptions options;
  options.jobs = 2;
  std::vector<std::size_t> finished;  // on_finish is serialized by contract
  options.on_finish = [&](std::size_t i, const CellOutcome& outcome) {
    EXPECT_TRUE(outcome.attempted());
    finished.push_back(i);
  };
  runner.run_isolated(all_paper_policies(), options);
  EXPECT_EQ(finished.size(), 9u);
}

TEST(ExperimentRunner, RunIsolatedPerCellTokensCancelOnlyTheirCell) {
  const Workload w = psched::workload::generate_small_workload(59, 40, 16, days(1));
  ExperimentRunner runner(w);
  IsolatedRunOptions options;
  options.jobs = 1;
  options.cell_stop = [](std::size_t i) {
    util::StopSource source;
    if (i == 0) source.request_stop();  // doom exactly the first cell
    return source.token();
  };
  const std::vector<CellOutcome> outcomes = runner.run_isolated(
      {paper_policy(PaperPolicy::Cplant24NomaxAll), paper_policy(PaperPolicy::ConsNomax)},
      options);
  EXPECT_FALSE(outcomes[0].result);
  ASSERT_TRUE(outcomes[0].error != nullptr);
  EXPECT_THROW(std::rethrow_exception(outcomes[0].error), SimulationCancelled);
  EXPECT_TRUE(outcomes[1].result);  // sibling unaffected
}

TEST(PolicyFst, MatchesDirectSimulationForLastJob) {
  const Workload w = psched::workload::generate_small_workload(9, 60, 16, days(1));
  EngineConfig config;
  config.policy.kind = PolicyKind::Easy;
  const std::vector<Time> fst = policy_no_later_arrivals_fst(w, config);
  ASSERT_EQ(fst.size(), w.jobs.size());
  // The last job's truncated universe is the full workload.
  const SimulationResult full = simulate(w, config);
  EXPECT_EQ(fst.back(), full.records.back().start);
  // No later arrivals can only help: FST <= actual start never violated by
  // more than scheduling-policy noise for FCFS-priority EASY.
  for (std::size_t i = 0; i < fst.size(); ++i) EXPECT_GE(fst[i], w.jobs[i].submit);
}

// The documented precondition (header: max_runtime == kNoTime) must be
// enforced on every path — segment chaining has no well-defined per-original
// start, so silently proceeding would return garbage fair-start times.
TEST(PolicyFst, RejectsMaxRuntimePolicies) {
  const Workload w = psched::workload::generate_small_workload(11, 20, 16, days(1));
  EngineConfig config;
  config.policy.max_runtime = hours(72);
  EXPECT_THROW(policy_no_later_arrivals_fst(w, config), std::invalid_argument);
  PolicyFstOptions serial{.parallel = false};
  EXPECT_THROW(policy_no_later_arrivals_fst(w, config, serial), std::invalid_argument);
  config.segment_arrival = SegmentArrival::Chained;
  EXPECT_THROW(policy_no_later_arrivals_fst(w, config), std::invalid_argument);
  try {
    policy_no_later_arrivals_fst(w, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("max_runtime"), std::string::npos);
  }
}

TEST(PolicyFst, SerialAndParallelAgree) {
  const Workload w = psched::workload::generate_small_workload(13, 50, 16, days(1));
  EngineConfig config;
  PolicyFstOptions serial{.parallel = false};
  PolicyFstOptions parallel{.parallel = true};
  EXPECT_EQ(policy_no_later_arrivals_fst(w, config, serial),
            policy_no_later_arrivals_fst(w, config, parallel));
}

}  // namespace
}  // namespace psched::sim
