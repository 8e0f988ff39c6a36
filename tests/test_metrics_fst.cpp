#include "metrics/fst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "oracles/arrival_snapshots.hpp"
#include "oracles/reference_profile.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"
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
  // The oracle stores each snapshot as the fairshare-ordered prefix that
  // ends at the arrival. Differential check on random running sets and
  // full, unordered waiting sets: the seed computation (sort every waiting
  // job by (usage, submit, id), list-schedule on the seed list scheduler
  // until the target) equals the oracle's FST over the sorted prefix.
  // Snapshots hold record ids, so every job of every snapshot gets its own
  // record; records [0, kSnapshots) are the targets, the rest get a
  // one-job snapshot of their own and are not checked.
  struct Waiting {
    JobId id;
    double usage;
    Time submit;
  };
  const auto fairshare_less = [](const Waiting& a, const Waiting& b) {
    if (a.usage != b.usage) return a.usage < b.usage;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  };
  constexpr NodeCount kNodes = 16;
  constexpr std::size_t kSnapshots = 300;
  util::Rng rng(20261017);
  SimulationResult result;
  result.system_size = kNodes;
  result.records.resize(kSnapshots);
  result.snapshots.resize(kSnapshots);
  // A record beside the targets (ids above kSnapshots never collide with
  // them), with its own trivial snapshot.
  const auto add_record = [&result](const JobRecord& record) {
    const auto id = static_cast<JobId>(result.records.size());
    result.records.push_back(record);
    result.records.back().job.id = id;
    ArrivalSnapshot own;
    own.id = id;
    own.at = record.start;
    own.waiting.push_back({id});
    result.snapshots.push_back(std::move(own));
    return id;
  };
  std::vector<std::vector<Waiting>> sorted(kSnapshots);  // the oracle's order
  for (std::size_t i = 0; i < kSnapshots; ++i) {
    const auto target = static_cast<JobId>(i);
    ArrivalSnapshot snapshot;
    snapshot.id = target;
    snapshot.at = rng.uniform_int(0, 1000);
    NodeCount busy = 0;
    for (auto k = rng.uniform_int(0, 6); k > 0 && busy < kNodes; --k) {
      // Remaining time in [0, 500]; the WCL overshoots it by [1, 300].
      JobRecord running;
      running.job.nodes = static_cast<NodeCount>(rng.uniform_int(1, kNodes - busy));
      const Time remaining = rng.uniform_int(0, 500);
      running.start = snapshot.at - rng.uniform_int(0, 200);
      running.job.runtime = remaining + (snapshot.at - running.start);
      running.job.wcl = running.job.runtime + rng.uniform_int(1, 300);
      busy += running.job.nodes;
      snapshot.running.push_back({add_record(running)});
    }
    // Few distinct usages and submits, so the id and submit tie-breaks
    // decide many pairs.
    const auto depth = rng.uniform_int(0, 30);
    for (std::int64_t k = 0; k <= depth; ++k) {
      JobRecord record;
      record.job.nodes = static_cast<NodeCount>(rng.uniform_int(1, kNodes));
      record.job.runtime = rng.uniform_int(1, 400);
      record.job.wcl = record.job.runtime + rng.uniform_int(0, 400);
      record.start = snapshot.at;
      Waiting w;
      if (k == 0) {
        record.job.id = target;
        result.records[i] = record;
        w.id = target;
      } else {
        w.id = add_record(record);
      }
      w.usage = static_cast<double>(rng.uniform_int(0, 3)) * 0.5;
      w.submit = snapshot.at - rng.uniform_int(0, 2) * 50;
      sorted[i].push_back(w);
    }
    std::sort(sorted[i].begin(), sorted[i].end(), fairshare_less);
    for (const Waiting& w : sorted[i]) {
      snapshot.waiting.push_back({w.id});
      if (w.id == target) break;
    }
    result.snapshots[i] = std::move(snapshot);
  }

  for (const FstKnowledge knowledge : {FstKnowledge::Perfect, FstKnowledge::Estimates}) {
    FstOptions options = strict();
    options.knowledge = knowledge;
    const bool perfect = knowledge == FstKnowledge::Perfect;
    const FstResult f = reference::snapshot_hybrid_fst(result, options);
    for (std::size_t i = 0; i < kSnapshots; ++i) {
      const ArrivalSnapshot& snapshot = result.snapshots[i];
      reference::ReferenceListScheduler list(kNodes, snapshot.at);
      for (const SnapshotRunning& r : snapshot.running) {
        const JobRecord& record = test::record_of(result, r.id);
        list.occupy(record.job.nodes,
                    snapshot.at + (perfect ? test::remaining_at(record, snapshot.at)
                                           : test::est_remaining_at(record, snapshot.at)));
      }
      Time expected = kNoTime;
      for (const Waiting& w : sorted[i]) {
        const Job& job = test::record_of(result, w.id).job;
        const Time start = list.schedule(job.nodes, perfect ? job.runtime : job.wcl, snapshot.at);
        if (w.id == snapshot.id) {
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

TEST(HybridFst, SnapshotIdWithoutARecordThrows) {
  // Job 1 arrives while job 0 runs, so its snapshot holds both kinds of
  // entry; pointing either at an id past the records must throw.
  const Workload w = make_workload(4, {make_job(0, 10, 1), make_job(5, 10, 2)});
  const SimulationResult r = reference::simulate_with_snapshots(w, sim::EngineConfig{});
  ASSERT_EQ(r.snapshots[1].running.size(), 1u);
  ASSERT_EQ(r.snapshots[1].waiting.size(), 1u);
  const auto missing = static_cast<JobId>(r.records.size());
  for (const bool parallel : {false, true}) {
    FstOptions options = strict();
    options.parallel = parallel;
    SimulationResult bad_running = r;
    bad_running.snapshots[1].running[0].id = missing;
    EXPECT_THROW(reference::snapshot_hybrid_fst(bad_running, options), std::invalid_argument);
    SimulationResult bad_waiting = r;
    bad_waiting.snapshots[1].waiting[0].id = kInvalidJob;
    EXPECT_THROW(reference::snapshot_hybrid_fst(bad_waiting, options), std::invalid_argument);
  }
}

TEST(HybridFst, ArrivalUsageWithoutARowOrUserThrows) {
  const Workload w = make_workload(4, {make_job(0, 10, 1), make_job(5, 10, 2, /*user=*/1)});
  const SimulationResult r = run_policy(w, PolicyKind::Fcfs);
  ASSERT_EQ(r.arrival_usage.users.size(), 2u);
  SimulationResult bad_row = r;
  bad_row.arrival_usage.row_of[1] = 7;
  EXPECT_THROW(hybrid_fairshare_fst(bad_row), std::invalid_argument);
  SimulationResult bad_user = r;
  bad_user.records[1].job.user = 2;
  EXPECT_THROW(hybrid_fairshare_fst(bad_user), std::invalid_argument);
  SimulationResult short_row = r;
  short_row.arrival_usage.rows.pop_back();
  EXPECT_THROW(hybrid_fairshare_fst(short_row), std::invalid_argument);
}

/// A small random trace on a one-hour grid: arrivals, completions, WCL kills
/// (and their hourly re-checks), fairshare publishes and, under a 72 h
/// maximum runtime, segment boundaries all land on shared instants.
Workload coarse_grid_workload(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Job> jobs;
  const auto count = rng.uniform_int(20, 60);
  for (std::int64_t k = 0; k < count; ++k) {
    const Time runtime = hours(rng.uniform_int(1, 100));
    // Under-estimates (WCL below the runtime) are what the kills act on.
    const Time wcl = hours(rng.uniform_int(1, 100));
    jobs.push_back(make_job(hours(rng.uniform_int(0, 120)), runtime,
                            static_cast<NodeCount>(rng.uniform_int(1, 16)),
                            static_cast<UserId>(rng.uniform_int(0, 4)), wcl));
  }
  return make_workload(16, std::move(jobs));
}

TEST(HybridFst, DerivedStateMatchesHookSnapshotsOnRandomWorkloads) {
  // The FST rebuilds each arrival's running set and queue prefix from the
  // records; the oracle reads them from the live engine at the arrival
  // hook. Every job's fair start must agree, for all nine paper policies
  // under every WCL enforcement, both segment arrivals (the 72max policies
  // split jobs) and both knowledge models, serial and chunked.
  const sim::WclEnforcement wcl_modes[] = {sim::WclEnforcement::Never,
                                           sim::WclEnforcement::KillIfNeeded,
                                           sim::WclEnforcement::Always};
  const sim::SegmentArrival segment_modes[] = {sim::SegmentArrival::AtOriginalSubmit,
                                               sim::SegmentArrival::Chained};
  std::size_t killed = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Workload w = coarse_grid_workload(seed);
    sim::EngineConfig config;
    config.wcl_enforcement = wcl_modes[seed % 3];
    config.segment_arrival = segment_modes[(seed / 3) % 2];
    for (const PolicyConfig& policy : all_paper_policies()) {
      config.policy = policy;
      const SimulationResult r = reference::simulate_with_snapshots(w, config);
      for (const JobRecord& record : r.records) killed += record.killed_at_wcl ? 1 : 0;
      for (const FstKnowledge knowledge : {FstKnowledge::Perfect, FstKnowledge::Estimates}) {
        FstOptions options = strict();
        options.knowledge = knowledge;
        options.parallel = seed % 2 == 0;
        const std::vector<Time> expected = reference::snapshot_hybrid_fst(r, options).fair_start;
        const std::vector<Time> derived = hybrid_fairshare_fst(r, options).fair_start;
        ASSERT_EQ(derived.size(), expected.size());
        for (std::size_t i = 0; i < derived.size(); ++i)
          ASSERT_EQ(derived[i], expected[i])
              << "seed " << seed << " " << policy.display_name() << " record " << i
              << (knowledge == FstKnowledge::Perfect ? " perfect" : " estimates");
      }
    }
  }
  EXPECT_GT(killed, 0u);
}

/// FNV-1a over every record's fair start: a compact pin of one FST pass.
std::uint64_t fair_start_digest(const FstResult& fst) {
  util::Fnv1a hash;
  for (const Time start : fst.fair_start) hash.mix(start);
  return hash.digest();
}

TEST(HybridFst, FairStartsArePinnedOnARossTrace) {
  // Two weeks of a 1,327-job Ross trace under every engine mode that changes
  // what a snapshot holds: the three WCL enforcements (23 jobs killed under
  // kill-if-needed, 35 under always; a killed job's perfect remaining time
  // stays runtime-based) and a 72 h maximum runtime under both segment
  // arrivals (1,387 records; chained segments become records mid-run).
  // Each is pinned in both knowledge modes.
  workload::GeneratorConfig generator;
  generator.seed = 5;
  generator.count_scale = 0.1;
  generator.span = weeks(2);
  const Workload w = workload::generate_ross_workload(generator);
  struct Case {
    const char* name;
    PaperPolicy policy;
    sim::WclEnforcement wcl;
    sim::SegmentArrival segments;
    std::uint64_t perfect;
    std::uint64_t estimates;
  };
  const Case cases[] = {
      {"nomax never", PaperPolicy::Cplant24NomaxAll, sim::WclEnforcement::Never,
       sim::SegmentArrival::AtOriginalSubmit, 0x9bdd450e7bde335bull, 0x2130362f0bee1575ull},
      {"nomax kill-if-needed", PaperPolicy::Cplant24NomaxAll, sim::WclEnforcement::KillIfNeeded,
       sim::SegmentArrival::AtOriginalSubmit, 0xf92fac08cb25e5d2ull, 0x73f8715cc1978ca9ull},
      {"nomax always", PaperPolicy::Cplant24NomaxAll, sim::WclEnforcement::Always,
       sim::SegmentArrival::AtOriginalSubmit, 0xeb1246bab13a8c2cull, 0xc63ea48452ed971dull},
      {"72max at-submit", PaperPolicy::Cplant24MaxAll, sim::WclEnforcement::Never,
       sim::SegmentArrival::AtOriginalSubmit, 0xa16ccb01ca0f9178ull, 0xed58a06d70321c6eull},
      {"72max chained", PaperPolicy::Cplant24MaxAll, sim::WclEnforcement::Never,
       sim::SegmentArrival::Chained, 0xb9ca8e3aedb7151eull, 0x16e4f52fab27c483ull},
  };
  for (const Case& c : cases) {
    sim::EngineConfig config;
    config.policy = paper_policy(c.policy);
    config.wcl_enforcement = c.wcl;
    config.segment_arrival = c.segments;
    const SimulationResult r = sim::simulate(w, config);
    FstOptions perfect = strict();
    FstOptions estimates = strict();
    estimates.knowledge = FstKnowledge::Estimates;
    const std::uint64_t got_perfect = fair_start_digest(hybrid_fairshare_fst(r, perfect));
    const std::uint64_t got_estimates = fair_start_digest(hybrid_fairshare_fst(r, estimates));
    EXPECT_EQ(got_perfect, c.perfect) << c.name;
    EXPECT_EQ(got_estimates, c.estimates) << c.name;
  }
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
