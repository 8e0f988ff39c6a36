// Determinism tests: the incremental conservative replanner must produce a
// byte-identical schedule to the original per-event-rebuild algorithm, and
// the profile-free CPlant backfill to the profile-based one.
//
// ReferenceConservativeScheduler below is a verbatim copy of the seed
// implementation (fresh profile + full reseat + improvement pass at every
// scheduling event), running on the preserved ReferenceProfile;
// ReferenceCplantScheduler likewise packs every CPlant start and its head
// reservation into a ReferenceProfile. Each pair of schedulers is driven
// over the same generated workloads — including under-estimating jobs
// (over-runners), fairshare priority reshuffles, runtime-limit segmentation
// and WCL kills — and every record's start and finish must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <unordered_map>

#include "core/conservative_scheduler.hpp"
#include "core/cplant_scheduler.hpp"
#include "core/policy.hpp"
#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "oracles/priority_order.hpp"
#include "oracles/reference_profile.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

/// The seed conservative scheduler, byte-for-byte (modulo running on
/// ReferenceProfile): rebuilds the availability profile and re-seats every
/// reservation at every scheduling event.
class ReferenceConservativeScheduler final : public Scheduler {
 public:
  explicit ReferenceConservativeScheduler(ConservativeConfig config) : config_(config) {}

  std::string name() const override { return "cons.reference"; }

  void on_submit(JobId id) override {
    waiting_.push_back(id);
    reservations_.emplace(id, kNoTime);
  }

  void on_complete(JobId) override {}

  void collect_starts(std::vector<JobId>& starts) override {
    wakeup_.reset();
    const Time now = ctx().now();
    reference::ReferenceProfile profile(ctx().total_nodes(), now);
    for (const RunningView& r : ctx().running()) {
      Time end = r.est_end;
      if (end <= now) end = now + std::max<Time>(kOverrunGrace, now - r.est_end);
      profile.add_usage(now, end, r.nodes);
    }
    replan(profile, now);

    NodeCount free = ctx().free_nodes();
    std::optional<Time> wake;
    for (const JobId id : reference::sorted_by_priority(ctx(), waiting_, config_.priority)) {
      const Time start = reservations_.at(id);
      if (start <= now) {
        const Job& job = ctx().job(id);
        if (job.nodes > free)
          throw std::logic_error("reference cons: reservation due but nodes not free");
        starts.push_back(id);
        free -= job.nodes;
        reservations_.erase(id);
        waiting_.erase(std::find(waiting_.begin(), waiting_.end(), id));
      } else if (!wake || start < *wake) {
        wake = start;
      }
    }
    wakeup_ = wake;
  }

  std::optional<Time> next_wakeup() const override { return wakeup_; }

 private:
  void replan(reference::ReferenceProfile& profile, Time now) {
    if (config_.dynamic_reservations) {
      for (const JobId id : reference::sorted_by_priority(ctx(), waiting_, config_.priority)) {
        const Job& job = ctx().job(id);
        const Time start = profile.earliest_fit(now, job.wcl, job.nodes);
        profile.add_usage(start, start + job.wcl, job.nodes);
        reservations_[id] = start;
      }
      return;
    }

    std::vector<JobId> seat_order = waiting_;
    std::sort(seat_order.begin(), seat_order.end(), [&](JobId a, JobId b) {
      const Time ra = reservations_.at(a);
      const Time rb = reservations_.at(b);
      const Time ka = ra == kNoTime ? std::numeric_limits<Time>::max() : ra;
      const Time kb = rb == kNoTime ? std::numeric_limits<Time>::max() : rb;
      if (ka != kb) return ka < kb;
      return a < b;
    });
    for (const JobId id : seat_order) {
      const Job& job = ctx().job(id);
      const Time stored = reservations_.at(id);
      const Time from = stored == kNoTime ? now : std::max(stored, now);
      const Time start = profile.earliest_fit(from, job.wcl, job.nodes);
      profile.add_usage(start, start + job.wcl, job.nodes);
      reservations_[id] = start;
    }

    for (const JobId id : reference::sorted_by_priority(ctx(), waiting_, config_.priority)) {
      const Job& job = ctx().job(id);
      const Time current = reservations_.at(id);
      profile.remove_usage(current, current + job.wcl, job.nodes);
      const Time improved = profile.earliest_fit(now, job.wcl, job.nodes);
      const Time chosen = improved < current ? improved : current;
      profile.add_usage(chosen, chosen + job.wcl, job.nodes);
      reservations_[id] = chosen;
    }
  }

  ConservativeConfig config_;
  std::vector<JobId> waiting_;
  std::unordered_map<JobId, Time> reservations_;
  std::optional<Time> wakeup_;
};

/// CPlant as it decided starts on a profile: running usage goes into a
/// fresh ReferenceProfile, a job starts if its window fits (fits_at +
/// add_usage), and the first blocked starvation job is seated at its
/// earliest fit (earliest_fit + add_usage). Promotion and timers are the
/// production scheduler's, copied.
class ReferenceCplantScheduler final : public Scheduler {
 public:
  explicit ReferenceCplantScheduler(CplantConfig config)
      : config_(config), queue_(config.priority) {}

  std::string name() const override { return "cplant.reference"; }
  void on_submit(JobId id) override { queue_.push(ctx(), id); }
  void on_complete(JobId) override {}
  std::optional<Time> next_wakeup() const override { return wakeup_; }

  void collect_starts(std::vector<JobId>& starts) override {
    wakeup_.reset();
    refresh_queue(queue_);
    promote_starving_jobs();

    const Time now = ctx().now();
    NodeCount free = ctx().free_nodes();
    reference::ReferenceProfile profile(ctx().total_nodes(), now);
    for (const RunningView& r : ctx().running())
      profile.add_usage(now, assumed_running_end(r, now), r.nodes);
    const auto start_if_fits = [&](const WaitQueue::Entry& job) {
      if (job.nodes > free || !profile.fits_at(now, job.wcl, job.nodes)) return false;
      profile.add_usage(now, now + job.wcl, job.nodes);
      starts.push_back(job.id);
      free -= job.nodes;
      return true;
    };

    std::optional<Time> head_reservation;
    std::size_t kept = 0;
    for (const WaitQueue::Entry& job : starve_) {
      if (start_if_fits(job)) continue;
      if (!head_reservation) {
        head_reservation = profile.earliest_fit(now, job.wcl, job.nodes);
        profile.add_usage(*head_reservation, *head_reservation + job.wcl, job.nodes);
      }
      starve_[kept++] = job;
    }
    starve_.resize(kept);
    queue_.retain([&](const WaitQueue::Entry& job) { return !start_if_fits(job); });

    std::optional<Time> wake = head_reservation;
    if (starvation_enabled()) {
      bool any_barred_now = false;
      for (const WaitQueue::Entry& job : queue_) {
        const Time eligible_at = job.submit + config_.starvation_delay;
        if (eligible_at > now) {
          if (!wake || eligible_at < *wake) wake = eligible_at;
        } else {
          any_barred_now = true;
        }
      }
      if (any_barred_now) {
        const Time recheck = now + hours(1);
        if (!wake || recheck < *wake) wake = recheck;
      }
    }
    wakeup_ = wake;
  }

 private:
  bool starvation_enabled() const { return config_.starvation_delay != kNoTime; }

  void promote_starving_jobs() {
    if (!starvation_enabled()) return;
    const Time now = ctx().now();
    const double mean = config_.bar_heavy_users ? ctx().mean_positive_usage() : 0.0;
    const bool bar = mean > 0.0;
    const double heavy_above = config_.heavy_user_factor * mean;
    const std::size_t promoted = starve_.size();
    queue_.retain([&](const WaitQueue::Entry& job) {
      if (now - job.submit < config_.starvation_delay) return true;
      if (bar && ctx().user_usage(job.user) > heavy_above) return true;
      starve_.push_back(job);
      return false;
    });
    std::sort(starve_.begin() + static_cast<std::ptrdiff_t>(promoted), starve_.end(),
              [](const WaitQueue::Entry& a, const WaitQueue::Entry& b) {
                return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
              });
  }

  CplantConfig config_;
  WaitQueue queue_;
  std::vector<WaitQueue::Entry> starve_;
  std::optional<Time> wakeup_;
};

void expect_identical_schedules(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(a.records[i].start, b.records[i].start) << "record " << i;
    ASSERT_EQ(a.records[i].finish, b.records[i].finish) << "record " << i;
    ASSERT_EQ(a.records[i].killed_at_wcl, b.records[i].killed_at_wcl) << "record " << i;
  }
  EXPECT_EQ(a.first_start, b.first_start);
  EXPECT_EQ(a.last_finish, b.last_finish);
  EXPECT_DOUBLE_EQ(a.busy_proc_seconds, b.busy_proc_seconds);
  EXPECT_DOUBLE_EQ(a.loc_proc_seconds, b.loc_proc_seconds);
}

void run_and_compare(const Workload& workload, bool dynamic, PriorityKind priority,
                     sim::EngineConfig base = {}) {
  base.policy.kind = dynamic ? PolicyKind::ConservativeDynamic : PolicyKind::Conservative;
  base.policy.priority = priority;
  const SimulationResult optimized = sim::simulate(workload, base);
  const SimulationResult reference = sim::simulate_with(
      workload, base,
      std::make_unique<ReferenceConservativeScheduler>(
          ConservativeConfig{priority, dynamic}));
  expect_identical_schedules(optimized, reference);
}

/// Runs `policy` (a CPlant variant, on top of `base`'s engine knobs) as
/// built by make_scheduler and as ReferenceCplantScheduler; the two
/// schedules must match.
void run_and_compare_cplant(const Workload& workload, const PolicyConfig& policy,
                            sim::EngineConfig base = {}) {
  const Time max_runtime = base.policy.max_runtime;
  base.policy = policy;
  base.policy.max_runtime = max_runtime;
  base.record_snapshots = false;
  CplantConfig config;
  config.priority = policy.priority;
  config.starvation_delay = policy.starvation_delay;
  config.bar_heavy_users = policy.bar_heavy_users;
  config.heavy_user_factor = policy.heavy_user_factor;
  const SimulationResult optimized = sim::simulate(workload, base);
  const SimulationResult reference =
      sim::simulate_with(workload, base, std::make_unique<ReferenceCplantScheduler>(config));
  expect_identical_schedules(optimized, reference);
}

/// The three nomax paper CPlant variants, plain no-guarantee backfilling,
/// and a 1-hour starvation delay that keeps the starvation queue busy on
/// short traces.
std::vector<PolicyConfig> cplant_twin_policies() {
  std::vector<PolicyConfig> policies = {paper_policy(PaperPolicy::Cplant24NomaxAll),
                                        paper_policy(PaperPolicy::Cplant24NomaxFair),
                                        paper_policy(PaperPolicy::Cplant72NomaxAll),
                                        *policy_from_name("noguarantee")};
  PolicyConfig hasty = paper_policy(PaperPolicy::Cplant24NomaxAll);
  hasty.starvation_delay = hours(1);
  policies.push_back(hasty);
  return policies;
}

TEST(SchedulerDeterminism, StaticConservativeMatchesSeedAlgorithm) {
  for (const std::uint64_t seed : {11u, 12u}) {
    const Workload w = workload::generate_small_workload(seed, 400, 128, days(10));
    run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare);
    run_and_compare(w, /*dynamic=*/false, PriorityKind::Fcfs);
  }
}

TEST(SchedulerDeterminism, DynamicConservativeMatchesSeedAlgorithm) {
  for (const std::uint64_t seed : {21u, 22u}) {
    const Workload w = workload::generate_small_workload(seed, 400, 128, days(10));
    run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare);
    run_and_compare(w, /*dynamic=*/true, PriorityKind::Fcfs);
  }
}

TEST(SchedulerDeterminism, HeavyLoadSmallMachine) {
  // A saturated machine maximizes queue depth, reservation churn and
  // compression cascades.
  const Workload w = workload::generate_small_workload(31, 500, 32, days(5));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare);
}

TEST(SchedulerDeterminism, WithRuntimeLimitSegmentation) {
  sim::EngineConfig config;
  config.policy.max_runtime = hours(12);
  const Workload w = workload::generate_small_workload(41, 300, 64, days(7));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

TEST(SchedulerDeterminism, WithWclKills) {
  sim::EngineConfig config;
  config.wcl_enforcement = sim::WclEnforcement::KillIfNeeded;
  const Workload w = workload::generate_small_workload(51, 300, 64, days(7));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

/// A burst workload that drives the waiting queue deep: everyone arrives
/// within the first hour on a small machine, so the conservative plan holds
/// hundreds of simultaneous reservations and every completion triggers a
/// heavy compression pass.
Workload burst_workload(std::size_t jobs) {
  util::Rng rng(7777);
  WorkloadBuilder b;
  b.system_size = 64;
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(rng.uniform_int(0, 7));
    job.submit = rng.uniform_int(0, 3600);
    job.nodes = static_cast<NodeCount>(rng.uniform_int(1, 16));
    job.runtime = rng.uniform_int(120, 4000);
    job.wcl = job.runtime + rng.uniform_int(0, 2000);
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

/// FNV-1a over every record's (start, finish): a compact schedule pin.
std::uint64_t schedule_digest(const SimulationResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](Time value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const JobRecord& r : result.records) {
    mix(r.start);
    mix(r.finish);
  }
  return h;
}

/// schedule_digest of one paper CPlant variant on `w`.
std::uint64_t cplant_digest(const Workload& w, PaperPolicy policy) {
  sim::EngineConfig config;
  config.policy = paper_policy(policy);
  config.record_snapshots = false;
  return schedule_digest(sim::simulate(w, config));
}

TEST(SchedulerDeterminism, DeepBurstQueue) {
  // 500 jobs queued within one hour on 64 nodes: deep plans, long
  // compression passes and a busy CPlant head reservation.
  const Workload w = burst_workload(500);
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare);
  // CPlant has no seed-scheduler twin here, so its schedule is pinned by
  // digest. Nothing here waits 72 h and no user is heavy enough to bar, so
  // only the .all pin sees the starvation queue (323 events with a blocked
  // head, 23 of them with a job starting behind it); the other two pin the
  // plain backfill and the bar check that lets everyone through.
  EXPECT_EQ(cplant_digest(w, PaperPolicy::Cplant24NomaxAll), 0xf9c9c7e801dbfd2bull);
  EXPECT_EQ(cplant_digest(w, PaperPolicy::Cplant24NomaxFair), 0xf9c9c7e801dbfd2bull);
  EXPECT_EQ(cplant_digest(w, PaperPolicy::Cplant72NomaxAll), 0x0bf9193053025bc8ull);
}

TEST(SchedulerDeterminism, CplantStarvationQueueOnARossTrace) {
  // Two weeks of a 1,327-job Ross trace: every variant's starvation queue
  // holds a blocked head with jobs starting behind it (.all at 106 events,
  // .fair 32, cplant72 36), and under .fair three barred jobs enter it
  // behind jobs submitted after them. Pinned by digest, like DeepBurstQueue.
  workload::GeneratorConfig generator;
  generator.seed = 5;
  generator.count_scale = 0.1;
  generator.span = weeks(2);
  const Workload w = workload::generate_ross_workload(generator);
  EXPECT_EQ(cplant_digest(w, PaperPolicy::Cplant24NomaxAll), 0x302a5260ccea49ceull);
  EXPECT_EQ(cplant_digest(w, PaperPolicy::Cplant24NomaxFair), 0x3a9067fbb55a973dull);
  EXPECT_EQ(cplant_digest(w, PaperPolicy::Cplant72NomaxAll), 0x81f3cca94fc7bc90ull);
}

/// A burst whose jobs repeat a few shapes that nest: wcl from {30, 60,
/// 120} minutes and width from {2, 4, 8, 16} nodes, so many queued jobs
/// share a shape exactly and most pairs dominate one another. Runtimes
/// fall short of the wcl by random amounts, so completions free capacity
/// early and dynamic replans re-seat the deep queue often.
Workload nested_shape_burst(std::size_t jobs) {
  util::Rng rng(8080);
  constexpr Time kWcl[] = {1800, 3600, 7200};
  constexpr NodeCount kNodes[] = {2, 4, 8, 16};
  WorkloadBuilder b;
  b.system_size = 64;
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(rng.uniform_int(0, 5));
    job.submit = rng.uniform_int(0, 1800);
    job.nodes = kNodes[rng.uniform_int(0, 3)];
    job.wcl = kWcl[rng.uniform_int(0, 2)];
    job.runtime = rng.uniform_int(job.wcl / 4, job.wcl);
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

TEST(SchedulerDeterminism, DynamicSeatFloorOnNestedShapes) {
  // Dynamic replans seat each job from a floor taken from the last 8 seats
  // of no larger shape. With twelve nested shapes in a 300-job burst (far
  // more than 8 queued at once), about 85% of the seats here start from a
  // floor later than `now`.
  const Workload w = nested_shape_burst(300);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fcfs);
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare);
  sim::EngineConfig config;
  config.fairshare_period = minutes(20);  // re-sorts: the suffix path
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

TEST(SchedulerDeterminism, MinuteFairsharePublishes) {
  // A publish every minute moves the priority epoch between most events: the
  // wait queue re-sorts on most calls, and dynamic mode takes its prefix from
  // the re-sort path.
  sim::EngineConfig config;
  config.fairshare_period = minutes(1);
  for (const std::uint64_t seed : {71u, 72u}) {
    const Workload w = workload::generate_small_workload(seed, 400, 128, days(10));
    run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
    run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
  }
  const Workload burst = burst_workload(300);
  run_and_compare(burst, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(burst, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

TEST(SchedulerDeterminism, PublishesUnderADeepQueue) {
  // A 20-minute publish period re-sorts the maintained order many times
  // while hundreds of reservations are held, with arrivals binary-inserted
  // between publishes.
  sim::EngineConfig config;
  config.fairshare_period = minutes(20);
  const Workload burst = burst_workload(400);
  run_and_compare(burst, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(burst, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

/// A burst in which about a third of the jobs run past their wcl (1.2-3x)
/// and the rest finish well before it (10-50%). Over-runs keep the plan in
/// full rebuilds for long stretches, and early completions free capacity
/// between them, so re-seats lean on the freed-capacity horizon carried
/// across those rebuilds: completions, seats moved by compression and by
/// pass 1 of a static rebuild, and dynamic seats moved either way.
Workload overrun_burst(std::size_t jobs) {
  util::Rng rng(9090);
  WorkloadBuilder b;
  b.system_size = 64;
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(rng.uniform_int(0, 7));
    job.submit = rng.uniform_int(0, 3600);
    job.nodes = static_cast<NodeCount>(rng.uniform_int(1, 16));
    job.wcl = rng.uniform_int(600, 6000);
    if (rng.uniform_int(0, 2) == 0)
      job.runtime = job.wcl + rng.uniform_int(job.wcl / 5, 2 * job.wcl);
    else
      job.runtime = rng.uniform_int(job.wcl / 10, job.wcl / 2);
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

TEST(SchedulerDeterminism, OverrunsAndEarlyCompletionsOnADeepQueue) {
  const Workload burst = overrun_burst(400);
  sim::EngineConfig config;
  config.wcl_enforcement = sim::WclEnforcement::Never;
  for (const bool dynamic : {false, true}) {
    run_and_compare(burst, dynamic, PriorityKind::Fairshare, config);
    run_and_compare(burst, dynamic, PriorityKind::Fcfs, config);
  }
  config.fairshare_period = minutes(20);  // re-sorts while over-runs rebuild
  run_and_compare(burst, /*dynamic=*/false, PriorityKind::Fairshare, config);
  run_and_compare(burst, /*dynamic=*/true, PriorityKind::Fairshare, config);
}

/// A burst on a 600 s grid: submits, wcls and runtimes are multiples of
/// 600, so job ends, and the head reservations they set, coincide often,
/// and a window ending exactly at the reservation is common. A quarter of
/// the jobs run past their wcl.
Workload grid_burst(std::size_t jobs) {
  util::Rng rng(6060);
  WorkloadBuilder b;
  b.system_size = 32;
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(rng.uniform_int(0, 5));
    job.submit = 600 * rng.uniform_int(0, 12);
    job.nodes = static_cast<NodeCount>(rng.uniform_int(1, 16));
    job.wcl = 600 * rng.uniform_int(1, 8);
    job.runtime = rng.uniform_int(0, 3) == 0 ? 2 * job.wcl : 600 * rng.uniform_int(1, job.wcl / 600);
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

/// A burst on a 60 s grid behind a blocked starvation head: many jobs run
/// a few minutes past their wcl, so several over-run at once and their
/// assumed ends tie at now + 300 (often with a job inside its estimate
/// ending there too) while others are still inside theirs; grid ends tie
/// at the head's reservation. Widths are narrow {1, 2} or wide {10..20}:
/// a narrow job starting behind the head drops `room` below every width
/// left in the starvation queue mid-scan.
Workload overrun_tie_burst(std::size_t jobs) {
  util::Rng rng(9090);
  WorkloadBuilder b;
  b.system_size = 32;
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(rng.uniform_int(0, 5));
    job.submit = 60 * rng.uniform_int(0, 300);
    job.nodes = static_cast<NodeCount>(rng.uniform_int(0, 1) == 0 ? rng.uniform_int(1, 2)
                                                                 : rng.uniform_int(10, 20));
    job.wcl = 60 * rng.uniform_int(2, 40);
    job.runtime = rng.uniform_int(0, 4) < 2 ? job.wcl + 60 * rng.uniform_int(1, 12)
                                            : 60 * rng.uniform_int(1, job.wcl / 60);
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

TEST(SchedulerDeterminism, CplantMatchesProfileBasedBackfill) {
  const std::vector<PolicyConfig> policies = cplant_twin_policies();
  std::vector<Workload> workloads;
  for (const std::uint64_t seed : {11u, 21u})
    workloads.push_back(workload::generate_small_workload(seed, 400, 128, days(10)));
  workloads.push_back(workload::generate_small_workload(31, 500, 32, days(5)));
  workloads.push_back(burst_workload(500));
  workloads.push_back(nested_shape_burst(300));
  workloads.push_back(overrun_burst(400));
  workloads.push_back(grid_burst(300));
  workloads.push_back(overrun_tie_burst(400));
  for (const Workload& w : workloads)
    for (const PolicyConfig& policy : policies) run_and_compare_cplant(w, policy);
}

TEST(SchedulerDeterminism, CplantMatchesProfileBasedBackfillUnderLimitsAndKills) {
  const std::vector<PolicyConfig> policies = cplant_twin_policies();
  sim::EngineConfig limited;
  limited.policy.max_runtime = hours(12);
  sim::EngineConfig killing;
  killing.wcl_enforcement = sim::WclEnforcement::KillIfNeeded;
  const Workload small = workload::generate_small_workload(41, 300, 64, days(7));
  const Workload overruns = overrun_burst(400);
  const Workload grid = grid_burst(300);
  const Workload ties = overrun_tie_burst(300);
  for (const PolicyConfig& policy : policies) {
    run_and_compare_cplant(small, policy, limited);
    run_and_compare_cplant(small, policy, killing);
    run_and_compare_cplant(overruns, policy, killing);
    run_and_compare_cplant(grid, policy, limited);
    run_and_compare_cplant(grid, policy, killing);
    run_and_compare_cplant(ties, policy, killing);
  }
}

/// A hand-placed over-run on 10 nodes. Job 0 (4 nodes) runs 1,500 s past
/// its 1,000 s estimate beside job 1 (6 nodes until 10,000), and arrivals
/// and wakeups keep replanning while it over-runs:
///   * at 1,100 and 1,200 its growing tail fits beside every seat (the
///     6-node jobs wait for job 1), so the plan grows in place;
///   * job 4 (4 nodes) is seated at its assumed end from 1,200 on, so every
///     later growth collides with that seat and the plan is rebuilt;
///   * job 0 completes at 2,500 while job 4 (wcl 1,500) is seated at
///     3,400, and static compression moves job 4 to 2,500: a window that
///     overlaps its own old one, on nodes its old seat fills.
Workload overrun_beside_seats() {
  struct Shape {
    Time submit;
    NodeCount nodes;
    Time wcl;
    Time runtime;
  };
  constexpr Shape kJobs[] = {{0, 4, 1000, 2500},  {0, 6, 10000, 10000}, {10, 6, 500, 500},
                             {1100, 6, 100, 100}, {1200, 4, 1500, 1000}, {1300, 6, 100, 100}};
  WorkloadBuilder b;
  b.system_size = 10;
  for (std::size_t i = 0; i < std::size(kJobs); ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(i % 3);
    job.submit = kJobs[i].submit;
    job.nodes = kJobs[i].nodes;
    job.wcl = kJobs[i].wcl;
    job.runtime = kJobs[i].runtime;
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

TEST(SchedulerDeterminism, OverrunGrowthBesideAndAgainstSeats) {
  const Workload w = overrun_beside_seats();
  sim::EngineConfig config;
  config.wcl_enforcement = sim::WclEnforcement::Never;
  for (const bool dynamic : {false, true}) {
    run_and_compare(w, dynamic, PriorityKind::Fairshare, config);
    run_and_compare(w, dynamic, PriorityKind::Fcfs, config);
  }
  // The schedule the comment above describes.
  config.policy.kind = PolicyKind::Conservative;
  const SimulationResult result = sim::simulate(w, config);
  EXPECT_EQ(result.records[0].finish, 2500);
  EXPECT_EQ(result.records[4].start, 2500);
}

TEST(SchedulerDeterminism, ChainedSegments) {
  sim::EngineConfig config;
  config.policy.max_runtime = hours(8);
  config.segment_arrival = sim::SegmentArrival::Chained;
  const Workload w = workload::generate_small_workload(61, 250, 64, days(7));
  run_and_compare(w, /*dynamic=*/false, PriorityKind::Fairshare, config);
}

/// One shape of job stream for the cut tests: `count` jobs of `user`
/// submitted uniformly in [from, to), width in [1, max_nodes], wcl in [60,
/// max_wcl] seconds, and runtime the wcl times a factor drawn from
/// [lo_pct, hi_pct] percent (above 100 runs past the estimate).
struct Stream {
  UserId user;
  std::size_t count;
  Time from;
  Time to;
  NodeCount max_nodes;
  Time max_wcl;
  std::int64_t lo_pct;
  std::int64_t hi_pct;
};

Workload streams_workload(std::uint64_t seed, NodeCount system_size,
                          std::initializer_list<Stream> streams) {
  util::Rng rng(seed);
  WorkloadBuilder b;
  b.system_size = system_size;
  for (const Stream& stream : streams) {
    for (std::size_t i = 0; i < stream.count; ++i) {
      Job job;
      job.id = static_cast<JobId>(b.jobs.size());
      job.user = stream.user;
      job.submit = rng.uniform_int(stream.from, stream.to - 1);
      job.nodes = static_cast<NodeCount>(rng.uniform_int(1, stream.max_nodes));
      job.wcl = rng.uniform_int(60, stream.max_wcl);
      job.runtime = std::max<Time>(1, job.wcl * rng.uniform_int(stream.lo_pct, stream.hi_pct) / 100);
      b.jobs.push_back(job);
    }
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

/// `counter` after one armed optimized run of `w` under `config`: shows
/// that a case reaches the state it is named for.
std::uint64_t counted(const Workload& w, sim::EngineConfig config, obs::Counter counter) {
  obs::reset();
  obs::arm();
  sim::simulate(w, config);
  const std::uint64_t value = obs::counter_value(counter);
  obs::reset();
  return value;
}

sim::EngineConfig dynamic_config(PriorityKind priority, sim::EngineConfig config = {}) {
  config.policy.kind = PolicyKind::ConservativeDynamic;
  config.policy.priority = priority;
  return config;
}

// Dynamic seating loops stop once no entry left can start before the next
// wakeup, leaving a tail of the queue unseated. The cases below drive the
// states that cut creates against the seed algorithm.

TEST(SchedulerDeterminism, HighPriorityArrivalAheadOfAnUnseatedTail) {
  // One user floods a 32-node machine in the first ten minutes; three light
  // users trickle in over the next six hours. Usage is published every 30
  // minutes, so once the heavy user's usage counts, every light job is
  // binary-inserted ahead of the flood's unseated tail (and often ahead of
  // its seated prefix too), and it may start at once or move the wakeup.
  const Workload w = streams_workload(
      101, 32,
      {{0, 160, 0, 600, 16, 7200, 40, 100}, {1, 25, 600, 6 * 3600, 4, 1800, 50, 100},
       {2, 25, 600, 6 * 3600, 8, 3600, 50, 100}, {3, 25, 600, 6 * 3600, 2, 900, 50, 100}});
  sim::EngineConfig config;
  config.fairshare_period = minutes(30);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
  EXPECT_GT(counted(w, dynamic_config(PriorityKind::Fairshare, config),
                    obs::Counter::kSchedDynamicUnseated),
            0u);
}

TEST(SchedulerDeterminism, FairshareResortAfterACut) {
  // Four users submit comparable floods; a publish every 10 minutes
  // re-sorts the queue while a tail of it is unseated, so unseated entries
  // move ahead of seated ones and seated ones behind unseated ones.
  const Workload w = streams_workload(
      202, 48,
      {{0, 60, 0, 3600, 24, 5400, 30, 100}, {1, 60, 0, 3600, 12, 5400, 30, 100},
       {2, 60, 0, 3600, 6, 5400, 30, 100}, {3, 60, 0, 3600, 48, 5400, 30, 100}});
  sim::EngineConfig config;
  config.fairshare_period = minutes(10);
  run_and_compare(w, /*dynamic=*/true, PriorityKind::Fairshare, config);
  const sim::EngineConfig dynamic = dynamic_config(PriorityKind::Fairshare, config);
  EXPECT_GT(counted(w, dynamic, obs::Counter::kSchedDynamicUnseated), 0u);
  EXPECT_GT(counted(w, dynamic, obs::Counter::kSchedPriorityResorts), 10u);
}

TEST(SchedulerDeterminism, OverrunGrowthBesideACutPlan) {
  // Narrow jobs run up to 3x past their estimate beside a deep queue of
  // wide ones: their tails grow in place beside the seated prefix while the
  // rest of the queue is unseated, and sometimes collide with a seat.
  const Workload w = streams_workload(
      303, 32,
      {{0, 40, 0, 3600, 2, 1800, 150, 300}, {1, 80, 0, 3600, 16, 3600, 30, 100},
       {2, 80, 0, 3600, 24, 3600, 30, 100}});
  sim::EngineConfig config;
  config.wcl_enforcement = sim::WclEnforcement::Never;
  for (const PriorityKind priority : {PriorityKind::Fairshare, PriorityKind::Fcfs})
    run_and_compare(w, /*dynamic=*/true, priority, config);
  EXPECT_GT(counted(w, dynamic_config(PriorityKind::Fcfs, config),
                    obs::Counter::kSchedDynamicUnseated),
            0u);
}

TEST(SchedulerDeterminism, CompletionRebuildAfterACut) {
  // Jobs finish after 5-30% of their estimate, so nearly every completion
  // frees future capacity and forces a full dynamic rebuild, from a queue
  // whose tail the previous loop left unseated.
  const Workload w = streams_workload(
      404, 64,
      {{0, 120, 0, 1800, 32, 7200, 5, 30}, {1, 120, 0, 1800, 8, 7200, 5, 30},
       {2, 60, 0, 1800, 64, 3600, 5, 30}});
  for (const PriorityKind priority : {PriorityKind::Fairshare, PriorityKind::Fcfs})
    run_and_compare(w, /*dynamic=*/true, priority);
  const sim::EngineConfig dynamic = dynamic_config(PriorityKind::Fcfs);
  EXPECT_GT(counted(w, dynamic, obs::Counter::kSchedDynamicUnseated), 0u);
  EXPECT_GT(counted(w, dynamic, obs::Counter::kSchedReplanFullCompletion), 0u);
}

/// A small random workload for the randomized differential test: 10-80
/// jobs from 1-6 users on 8-64 nodes, submitted in one burst or spread
/// over up to a day, with widths narrow or up to the whole machine, wcls
/// on a minute grid or not, and runtimes from a tenth of the wcl to three
/// times it.
Workload random_workload(util::Rng& rng) {
  constexpr NodeCount kSizes[] = {8, 16, 32, 64};
  WorkloadBuilder b;
  b.system_size = kSizes[rng.uniform_int(0, 3)];
  const std::size_t jobs = static_cast<std::size_t>(rng.uniform_int(10, 80));
  const Time span = rng.flip(0.5) ? rng.uniform_int(1, 3600) : rng.uniform_int(3600, days(1));
  const std::int64_t users = rng.uniform_int(1, 6);
  const bool grid = rng.flip(0.5);
  const std::int64_t overrun_pct = rng.uniform_int(0, 2) * 20;  // share past the wcl
  for (std::size_t i = 0; i < jobs; ++i) {
    Job job;
    job.id = static_cast<JobId>(i);
    job.user = static_cast<UserId>(rng.uniform_int(0, users - 1));
    job.submit = rng.uniform_int(0, span);
    job.nodes = static_cast<NodeCount>(
        rng.flip(0.6) ? rng.uniform_int(1, std::max<NodeCount>(1, b.system_size / 8))
                      : rng.uniform_int(1, b.system_size));
    job.wcl = grid ? 60 * rng.uniform_int(1, 120) : rng.uniform_int(30, 7200);
    job.runtime = rng.uniform_int(0, 99) < overrun_pct
                      ? job.wcl + rng.uniform_int(1, 2 * job.wcl)
                      : std::max<Time>(1, rng.uniform_int(job.wcl / 10, job.wcl));
    b.jobs.push_back(job);
  }
  b.normalize();
  Workload w = b.build();
  w.validate();
  return w;
}

TEST(SchedulerDeterminism, RandomizedDynamicWorkloads) {
  // 200 seeded random workloads, each under Fairshare and Fcfs priority,
  // with the publish period and WCL enforcement drawn too.
  util::Rng rng(4242);
  obs::reset();
  obs::arm();
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    const Workload w = random_workload(rng);
    sim::EngineConfig config;
    constexpr Time kPeriods[] = {minutes(1), minutes(20), hours(6), days(1)};
    config.fairshare_period = kPeriods[rng.uniform_int(0, 3)];
    config.wcl_enforcement =
        rng.flip(0.5) ? sim::WclEnforcement::Never : sim::WclEnforcement::KillIfNeeded;
    for (const PriorityKind priority : {PriorityKind::Fairshare, PriorityKind::Fcfs})
      run_and_compare(w, /*dynamic=*/true, priority, config);
    if (HasFatalFailure()) break;
  }
  const std::uint64_t unseated = obs::counter_value(obs::Counter::kSchedDynamicUnseated);
  obs::reset();
  EXPECT_GT(unseated, 0u);
}

}  // namespace
}  // namespace psched
