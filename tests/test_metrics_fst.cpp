#include "metrics/fst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "oracles/reference_profile.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psched::metrics {
namespace {

using test::make_job;
using test::make_workload;
using test::run_policy;

FstOptions strict() {
  FstOptions options;
  options.tolerance = 1;
  options.knowledge = FstKnowledge::Perfect;
  return options;
}

TEST(HybridFst, UncontendedJobsAreFair) {
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 4),
                                          make_job(200, 100, 4),
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Fcfs);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  EXPECT_DOUBLE_EQ(f.percent_unfair, 0.0);
  EXPECT_DOUBLE_EQ(f.avg_miss_all, 0.0);
  EXPECT_EQ(f.fair_start[0], 0);
  EXPECT_EQ(f.fair_start[1], 200);
}

TEST(HybridFst, DetectsOvertakenWideJob) {
  // Under no-guarantee backfilling, narrow later jobs overtake a wide job.
  // The FST (list schedule) would have started the wide job at the drain.
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = kNoTime;  // pure no-guarantee
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 1000, 3, 0));   // running, 3 of 4 nodes
  jobs.push_back(make_job(10, 100, 4, 1));   // wide: FST = 1000 (after drain)
  // One-node jobs that keep the machine from draining at t=1000.
  jobs.push_back(make_job(20, 2000, 1, 2));  // starts immediately on the free node
  const Workload w = make_workload(4, jobs);
  const SimulationResult r = sim::simulate(w, config);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  // Wide job: list schedule at its arrival (job 2 not yet arrived) starts it
  // at t=1000; in reality job 2 holds the fourth node until 2020.
  EXPECT_EQ(f.fair_start[1], 1000);
  EXPECT_EQ(r.records[1].start, 2020);
  EXPECT_EQ(f.miss[1], 1020);
  EXPECT_GT(f.percent_unfair, 0.0);
}

TEST(HybridFst, FstUsesFairsharePriorityOrder) {
  // Two jobs arrive while the machine is busy; the light user's job has the
  // earlier FST even though it arrived later.
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.policy.starvation_delay = kNoTime;  // isolate the queue-order effect
  const Workload w = make_workload(
      4, {
             make_job(0, days(2), 4, /*user=*/0),        // heavy user runs 2 days
             make_job(days(1), 100, 4, /*user=*/0),      // heavy user's job
             make_job(days(1) + 10, 100, 4, /*user=*/1)  // light user's job
         });
  const SimulationResult r = sim::simulate(w, config);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  // Job 2's snapshot contains job 1; fairshare puts user 1 first, so job 2's
  // FST is the drain (2 days), job 1's FST (from its own snapshot) is also
  // the drain -- but job 2 actually starts first. Job 1 must then miss.
  EXPECT_EQ(f.fair_start[2], days(2));
  EXPECT_EQ(r.records[2].start, days(2));
  EXPECT_EQ(f.miss[2], 0);
  EXPECT_GT(f.miss[1], 0);
}

TEST(HybridFst, StoredPrefixMatchesSortedFullQueueOracle) {
  // The engine stores each snapshot as the fairshare-ordered prefix that
  // ends at the arrival. Differential check on random running sets and
  // full, unordered waiting sets: the seed computation (sort every waiting
  // job by (usage, submit, id), list-schedule on the seed list scheduler
  // until the target) equals hybrid_fairshare_fst over the sorted prefix.
  struct Waiting {
    SnapshotWaiting job;
    double usage;
    Time submit;
  };
  const auto fairshare_less = [](const Waiting& a, const Waiting& b) {
    if (a.usage != b.usage) return a.usage < b.usage;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.job.id < b.job.id;
  };
  constexpr NodeCount kNodes = 16;
  constexpr std::size_t kSnapshots = 300;
  util::Rng rng(20261017);
  SimulationResult result;
  result.system_size = kNodes;
  std::vector<std::vector<Waiting>> sorted(kSnapshots);  // the oracle's order
  for (std::size_t i = 0; i < kSnapshots; ++i) {
    const auto target = static_cast<JobId>(i);
    ArrivalSnapshot snapshot;
    snapshot.id = target;
    snapshot.at = rng.uniform_int(0, 1000);
    NodeCount busy = 0;
    for (auto k = rng.uniform_int(0, 6); k > 0 && busy < kNodes; --k) {
      SnapshotRunning running;
      running.nodes = static_cast<NodeCount>(rng.uniform_int(1, kNodes - busy));
      running.remaining = rng.uniform_int(0, 500);
      running.est_remaining = running.remaining + rng.uniform_int(1, 300);
      busy += running.nodes;
      snapshot.running.push_back(running);
    }
    // Few distinct usages and submits, so the id and submit tie-breaks
    // decide many pairs; ids above kSnapshots never collide with targets.
    const auto depth = rng.uniform_int(0, 30);
    for (std::int64_t k = 0; k <= depth; ++k) {
      Waiting w;
      w.job.id = k == 0 ? target : static_cast<JobId>(kSnapshots) + static_cast<JobId>(k);
      w.job.nodes = static_cast<NodeCount>(rng.uniform_int(1, kNodes));
      w.job.runtime = rng.uniform_int(1, 400);
      w.job.wcl = w.job.runtime + rng.uniform_int(0, 400);
      w.usage = static_cast<double>(rng.uniform_int(0, 3)) * 0.5;
      w.submit = snapshot.at - rng.uniform_int(0, 2) * 50;
      sorted[i].push_back(w);
    }
    std::sort(sorted[i].begin(), sorted[i].end(), fairshare_less);
    for (const Waiting& w : sorted[i]) {
      snapshot.waiting.push_back(w.job);
      if (w.job.id == target) break;
    }
    JobRecord record;
    record.job = make_job(0, snapshot.waiting.back().runtime, snapshot.waiting.back().nodes);
    record.job.id = target;
    record.start = snapshot.at;
    result.records.push_back(record);
    result.snapshots.push_back(std::move(snapshot));
  }

  for (const FstKnowledge knowledge : {FstKnowledge::Perfect, FstKnowledge::Estimates}) {
    FstOptions options = strict();
    options.knowledge = knowledge;
    const bool perfect = knowledge == FstKnowledge::Perfect;
    const FstResult f = hybrid_fairshare_fst(result, options);
    for (std::size_t i = 0; i < kSnapshots; ++i) {
      const ArrivalSnapshot& snapshot = result.snapshots[i];
      reference::ReferenceListScheduler list(kNodes, snapshot.at);
      for (const SnapshotRunning& r : snapshot.running)
        list.occupy(r.nodes, snapshot.at + (perfect ? r.remaining : r.est_remaining));
      Time expected = kNoTime;
      for (const Waiting& w : sorted[i]) {
        const Time start =
            list.schedule(w.job.nodes, perfect ? w.job.runtime : w.job.wcl, snapshot.at);
        if (w.job.id == snapshot.id) {
          expected = start;
          break;
        }
      }
      EXPECT_EQ(f.fair_start[i], expected)
          << "snapshot " << i << (perfect ? " perfect" : " estimates");
    }
  }
}

TEST(HybridFst, RequiresSnapshots) {
  const Workload w = make_workload(4, {make_job(0, 10, 1)});
  sim::EngineConfig config;
  config.record_snapshots = false;
  const SimulationResult r = sim::simulate(w, config);
  EXPECT_THROW(hybrid_fairshare_fst(r), std::invalid_argument);
}

TEST(HybridFst, SerialAndParallelAgree) {
  const Workload w = psched::workload::generate_small_workload(41, 300, 64, days(7));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  FstOptions serial = strict();
  serial.parallel = false;
  FstOptions parallel = strict();
  parallel.parallel = true;
  const FstResult a = hybrid_fairshare_fst(r, serial);
  const FstResult b = hybrid_fairshare_fst(r, parallel);
  ASSERT_EQ(a.fair_start.size(), b.fair_start.size());
  for (std::size_t i = 0; i < a.fair_start.size(); ++i)
    EXPECT_EQ(a.fair_start[i], b.fair_start[i]) << "record " << i;
}

TEST(HybridFst, EstimateKnowledgeIsMoreLenient) {
  const Workload w = psched::workload::generate_small_workload(43, 300, 64, days(7));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  FstOptions perfect = strict();
  FstOptions estimates = strict();
  estimates.knowledge = FstKnowledge::Estimates;
  const FstResult p = hybrid_fairshare_fst(r, perfect);
  const FstResult e = hybrid_fairshare_fst(r, estimates);
  // WCL-based hypothetical schedules are pessimistic, so estimate-based FSTs
  // are never earlier in aggregate.
  EXPECT_LE(e.avg_miss_all, p.avg_miss_all * 1.5 + 1.0);
}

TEST(HybridFst, ToleranceMonotonicity) {
  const Workload w = psched::workload::generate_small_workload(47, 300, 32, days(7));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  double prev = 1.0;
  for (const Time tolerance : {Time(1), hours(1), hours(24)}) {
    FstOptions options = strict();
    options.tolerance = tolerance;
    const FstResult f = hybrid_fairshare_fst(r, options);
    EXPECT_LE(f.percent_unfair, prev + 1e-12);
    prev = f.percent_unfair;
    EXPECT_LE(f.percent_unfair, f.percent_unfair_any + 1e-12);
  }
}

TEST(HybridFst, WidthBreakdownSumsMatch) {
  const Workload w = psched::workload::generate_small_workload(53, 250, 64, days(6));
  const SimulationResult r = run_policy(w, PolicyKind::Easy, PriorityKind::Fairshare);
  const FstResult f = hybrid_fairshare_fst(r, strict());
  std::size_t jobs = 0;
  for (const std::size_t c : f.jobs_by_width) jobs += c;
  EXPECT_EQ(jobs, r.records.size());
  double weighted = 0.0;
  for (std::size_t wdt = 0; wdt < kWidthCategories; ++wdt)
    weighted += f.avg_miss_by_width[wdt] * static_cast<double>(f.jobs_by_width[wdt]);
  EXPECT_NEAR(weighted / static_cast<double>(r.records.size()), f.avg_miss_all, 1e-6);
}

TEST(ConsPFst, PerfectEstimateScheduleIsExactlyFairForFcfsConservative) {
  // A conservative FCFS run with perfect estimates reproduces the CONS_P
  // schedule, so nobody misses.
  WorkloadBuilder edit(psched::workload::generate_small_workload(59, 150, 32, days(4)));
  for (Job& job : edit.jobs) job.wcl = job.runtime;  // perfect estimates
  const Workload w = edit.build();
  const SimulationResult r = run_policy(w, PolicyKind::Conservative, PriorityKind::Fcfs);
  const FstResult f = cons_p_fst(r, strict());
  for (std::size_t i = 0; i < r.records.size(); ++i)
    EXPECT_EQ(f.miss[i], 0) << "record " << i;
}

TEST(ConsPFst, MeasuresDeviationFromConservativeIdeal) {
  const Workload w = psched::workload::generate_small_workload(61, 200, 32, days(5));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  const FstResult f = cons_p_fst(r, strict());
  // The metric is defined for every record and non-negative.
  for (const Time m : f.miss) EXPECT_GE(m, 0);
  EXPECT_EQ(f.fair_start.size(), r.records.size());
}

}  // namespace
}  // namespace psched::metrics
