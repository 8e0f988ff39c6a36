#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <optional>
#include <string>
#include <thread>

#include "obs/obs.hpp"
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
// Cell 0 fails on its max runtime (the policy-knowledge FST rejects it) and
// cell 1 at scheduler construction, so on four lanes either error may come
// first in time; cell 0's must win anyway.
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
  EXPECT_NE(outcomes[0].error, nullptr);
  EXPECT_FALSE(outcomes[1].result.has_value());  // never pulled
  EXPECT_EQ(outcomes[1].error, nullptr);
}

TEST(ExperimentRunner, RunIsolatedReportsEveryAttemptThroughOnFinish) {
  const Workload w = psched::workload::generate_small_workload(53, 40, 16, days(1));
  ExperimentRunner runner(w);
  IsolatedRunOptions options;
  options.jobs = 2;
  std::vector<std::size_t> finished;  // on_finish is serialized by contract
  options.on_finish = [&](std::size_t i, CellOutcome& outcome) {
    ASSERT_TRUE(outcome.result.has_value());
    EXPECT_FALSE(outcome.result->simulation.snapshots.empty());
    finished.push_back(i);
    // What a campaign does: keep the report, free the simulation. The
    // returned outcomes hold whatever on_finish left.
    outcome.result->simulation = SimulationResult{};
  };
  const std::vector<CellOutcome> outcomes = runner.run_isolated(all_paper_policies(), options);
  EXPECT_EQ(finished.size(), 9u);
  for (const CellOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.result.has_value());
    EXPECT_TRUE(outcome.result->simulation.records.empty());
    EXPECT_TRUE(outcome.result->simulation.snapshots.empty());
    EXPECT_FALSE(outcome.result->report.fairness.fair_start.empty());
  }
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
  config.segment_arrival = SegmentArrival::Chained;
  EXPECT_THROW(policy_no_later_arrivals_fst(w, config), std::invalid_argument);
  try {
    policy_no_later_arrivals_fst(w, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("max_runtime"), std::string::npos);
  }
}

void expect_identical_snapshots(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    const ArrivalSnapshot& x = a.snapshots[i];
    const ArrivalSnapshot& y = b.snapshots[i];
    EXPECT_EQ(x.id, y.id) << "snapshot " << i;
    EXPECT_EQ(x.at, y.at) << "snapshot " << i;
    ASSERT_EQ(x.running.size(), y.running.size()) << "snapshot " << i;
    for (std::size_t k = 0; k < x.running.size(); ++k) {
      const JobRecord& rx = test::record_of(a, x.running[k].id);
      const JobRecord& ry = test::record_of(b, y.running[k].id);
      EXPECT_EQ(rx.job.nodes, ry.job.nodes);
      EXPECT_EQ(test::remaining_at(rx, x.at), test::remaining_at(ry, y.at));
      EXPECT_EQ(test::est_remaining_at(rx, x.at), test::est_remaining_at(ry, y.at));
    }
    ASSERT_EQ(x.waiting.size(), y.waiting.size()) << "snapshot " << i;
    for (std::size_t k = 0; k < x.waiting.size(); ++k) {
      EXPECT_EQ(x.waiting[k].id, y.waiting[k].id);
      const Job& jx = test::record_of(a, x.waiting[k].id).job;
      const Job& jy = test::record_of(b, y.waiting[k].id).job;
      EXPECT_EQ(jx.nodes, jy.nodes);
      EXPECT_EQ(jx.runtime, jy.runtime);
      EXPECT_EQ(jx.wcl, jy.wcl);
    }
  }
}

void expect_identical_fst_stats(const PolicyFstStats& a, const PolicyFstStats& b) {
  EXPECT_EQ(a.forks, b.forks);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.resolved_from_master, b.resolved_from_master);
  EXPECT_EQ(a.fork_batch, b.fork_batch);
  EXPECT_EQ(a.peak_batch_bytes, b.peak_batch_bytes);
}

// A policy-knowledge cell simulates its trace once: the fork master is the
// cell's simulation. It must equal the two passes it replaced, simulate()
// and then policy_no_later_arrivals_fst, in every byte: records, snapshots,
// run-shape counts, fair starts and drain stats, whether the pass runs
// through the runner or through simulate_with_policy_fst directly.
TEST(ExperimentRunner, PolicyKnowledgeCellMatchesTheTwoPassPath) {
  const Workload w = psched::workload::generate_small_workload(37, 300, 64, days(3));
  for (const char* name :
       {"cplant24.nomax.all", "cplant24.nomax.fair", "easy", "cons.nomax", "consdyn.nomax"}) {
    const PolicyConfig policy = *policy_from_name(name);
    for (const std::size_t fork_batch : {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
      for (const bool through_runner : {true, false}) {
        SCOPED_TRACE(std::string(name) + " fork_batch " + std::to_string(fork_batch) +
                     (through_runner ? " runner" : " direct"));
        EngineConfig config;
        config.policy = policy;
        PolicyFstStats two_pass_stats;
        const PolicyFstOptions options{.fork_batch = fork_batch, .stats = &two_pass_stats};
        const SimulationResult simulation = simulate(w, config);
        const std::vector<Time> fair_start = policy_no_later_arrivals_fst(w, config, options);

        SimulationResult one_pass;
        std::vector<Time> one_pass_fair_start;
        PolicyFstStats one_pass_stats;
        if (through_runner) {
          metrics::FstOptions fst;
          fst.policy_knowledge = true;
          fst.fork_batch = fork_batch;
          ExperimentResult cell = ExperimentRunner(w, {}, fst).run(policy);
          one_pass = std::move(cell.simulation);
          one_pass_fair_start = cell.report.policy_fairness.fair_start;
          one_pass_stats = cell.fst_stats;
        } else {
          PolicyFstOptions direct = options;
          direct.stats = &one_pass_stats;
          PolicyFstRun pass = simulate_with_policy_fst(w, config, direct);
          one_pass = std::move(pass.simulation);
          one_pass_fair_start = std::move(pass.fair_start);
        }
        expect_identical_records(simulation, one_pass);
        expect_identical_snapshots(simulation, one_pass);
        EXPECT_FALSE(one_pass.snapshots.empty());
        EXPECT_EQ(simulation.events_delivered, one_pass.events_delivered);
        EXPECT_EQ(simulation.scheduler_invocations, one_pass.scheduler_invocations);
        EXPECT_EQ(fair_start, one_pass_fair_start);
        expect_identical_fst_stats(two_pass_stats, one_pass_stats);
      }
    }
  }
}

// A policy_* cell with a runtime limit fails before it simulates anything,
// with the message the two-pass path threw after a full simulation.
TEST(PolicyFst, MaxRuntimeFailsBeforeSimulating) {
  const Workload w = psched::workload::generate_small_workload(17, 40, 16, days(1));
  metrics::FstOptions fst;
  fst.policy_knowledge = true;
  ExperimentRunner runner(w, {}, fst);
  obs::reset();
  obs::arm();
  try {
    runner.run(paper_policy(PaperPolicy::Cplant24MaxAll));
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "policy_no_later_arrivals_fst: requires config.policy.max_runtime == kNoTime — "
                 "segment chaining has no well-defined per-original start");
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kEngineEventsDelivered), 0u);
  obs::reset();
}

// A cell's token tripped mid-pass, with fork drains in flight on the pool,
// cancels the cell; the pass waits for every drain before it unwinds, since
// a drain left running would write into freed fair-start storage (the
// address and thread sanitizer runs of the suite catch that). The watcher
// trips the token once the pass has enqueued drains (leaf tasks). In the
// first round every pool worker is parked until the cell has thrown, so
// drains queue up behind the master and one the pass left behind would run
// only afterwards, against freed storage; in the second the workers drain
// beside the master.
TEST(PolicyFst, CancelledPassWaitsForInFlightDrains) {
  const Workload w = psched::workload::generate_small_workload(19, 20000, 32, days(10));
  metrics::FstOptions fst;
  fst.policy_knowledge = true;
  ExperimentRunner runner(w, {}, fst);
  const PolicyConfig policy = paper_policy(PaperPolicy::Cplant24NomaxAll);
  util::ThreadPool& pool = util::global_pool();

  for (const bool park_workers : {true, false}) {
    SCOPED_TRACE(park_workers ? "workers parked" : "workers draining");
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    std::atomic<std::size_t> parked{0};
    std::vector<std::future<void>> parkers;
    for (std::size_t k = 0; park_workers && k < pool.size(); ++k)
      parkers.push_back(pool.submit([&] {
        ++parked;
        released.wait();
      }));
    while (parked.load() < parkers.size()) std::this_thread::yield();

    obs::reset();
    obs::arm();
    util::StopSource stop;
    std::atomic<bool> finished{false};
    std::atomic<bool> tripped{false};
    std::thread watcher([&] {
      while (!finished.load()) {
        if (obs::counter_value(obs::Counter::kPoolTasksLeaf) >= 8) {
          stop.request_stop();
          tripped.store(true);
          return;
        }
        std::this_thread::yield();
      }
    });
    EXPECT_THROW(runner.run(policy, stop.token()), SimulationCancelled);
    finished.store(true);
    watcher.join();
    release.set_value();
    for (std::future<void>& parker : parkers) parker.get();
    obs::reset();
    EXPECT_TRUE(tripped.load());
  }

  // The pool and the runner stay usable, and a later run is unaffected.
  const Workload small = psched::workload::generate_small_workload(19, 200, 64, days(2));
  EngineConfig config;
  config.policy = policy;
  EXPECT_EQ(ExperimentRunner(small, {}, fst).run(policy).report.policy_fairness.fair_start,
            policy_no_later_arrivals_fst(small, config));
}

}  // namespace
}  // namespace psched::sim
