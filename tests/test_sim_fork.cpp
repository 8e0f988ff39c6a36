// Forkable-engine coverage: the forked policy-knowledge FST must be
// byte-identical to the preserved naive re-simulation (the behavioral
// oracle) for every policy, every WCL enforcement mode and several seeds,
// with the drains on the pool; and the fork API must enforce its
// preconditions. `tools/run_sanitize.sh thread` runs this suite under
// ThreadSanitizer (parallel draining races would surface here).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "oracles/policy_fst_naive.hpp"
#include "sim/policy_fst.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::sim {
namespace {

/// The nine named policies with the maximum-runtime limit cleared: the
/// policy FST is defined only for unsegmented runs, so the *max variants are
/// exercised with the same base scheduler minus the limit. This still covers
/// every scheduler class (cplant x3 knob combinations, conservative static +
/// dynamic) — clone() fidelity is what the equality pins.
std::vector<PolicyConfig> nine_policies_nomax() {
  std::vector<PolicyConfig> policies = all_paper_policies();
  for (PolicyConfig& policy : policies) {
    policy.name = policy.display_name();  // keep the paper name for messages
    policy.max_runtime = kNoTime;
  }
  return policies;
}

/// Every 3rd job underestimates its runtime (wcl = runtime / 2), so
/// overrun-handling — the growing assumed-end horizon, conservative's
/// forced full replans, WCL kills when enforced — is live in every run.
Workload with_underestimates(const Workload& workload) {
  WorkloadBuilder edit(workload);
  for (std::size_t i = 0; i < edit.jobs.size(); i += 3) {
    Job& job = edit.jobs[i];
    job.wcl = std::max<Time>(1, job.runtime / 2);
  }
  Workload out = edit.build();
  out.validate();
  return out;
}

TEST(PolicyFstFork, ByteIdenticalToNaiveForAllNinePolicies) {
  for (const std::uint64_t seed : {3ull, 17ull}) {
    const Workload w = workload::generate_small_workload(seed, 70, 64, days(2));
    for (const PolicyConfig& policy : nine_policies_nomax()) {
      EngineConfig config;
      config.policy = policy;
      const std::vector<Time> naive = policy_no_later_arrivals_fst_naive(w, config);
      const std::vector<Time> forked = policy_no_later_arrivals_fst(w, config);
      EXPECT_EQ(naive, forked) << policy.display_name() << " seed " << seed;
    }
  }
}

TEST(PolicyFstFork, ByteIdenticalAcrossWclEnforcementModes) {
  const Workload w =
      with_underestimates(workload::generate_small_workload(11, 80, 64, days(2)));
  for (const PolicyKind kind :
       {PolicyKind::Cplant, PolicyKind::Easy, PolicyKind::Conservative}) {
    for (const WclEnforcement mode :
         {WclEnforcement::Never, WclEnforcement::KillIfNeeded, WclEnforcement::Always}) {
      EngineConfig config;
      config.policy.kind = kind;
      config.wcl_enforcement = mode;
      const std::vector<Time> naive = policy_no_later_arrivals_fst_naive(w, config);
      const std::vector<Time> forked = policy_no_later_arrivals_fst(w, config);
      EXPECT_EQ(naive, forked) << "kind " << static_cast<int>(kind) << " mode "
                               << static_cast<int>(mode);
    }
  }
}

// CPlant forks clone the scheduler's index of running ends and its queue
// bounds mid-run. On a 32-node machine with a 1-hour starvation delay, most
// invocations walk to a blocked starvation head's reservation, many of
// them past over-running jobs.
TEST(PolicyFstFork, CplantForksMatchNaiveBehindAStarvationHead) {
  const Workload w =
      with_underestimates(workload::generate_small_workload(41, 120, 32, days(1)));
  std::vector<PolicyConfig> policies = {paper_policy(PaperPolicy::Cplant24NomaxAll),
                                        paper_policy(PaperPolicy::Cplant24NomaxFair)};
  for (PolicyConfig policy : {policies[0], policies[1]}) {
    policy.starvation_delay = hours(1);
    policies.push_back(policy);
  }
  for (const PolicyConfig& policy : policies) {
    EngineConfig config;
    config.policy = policy;
    EXPECT_EQ(policy_no_later_arrivals_fst_naive(w, config),
              policy_no_later_arrivals_fst(w, config))
        << policy.display_name() << " delay " << policy.starvation_delay;
  }
}

// Dynamic conservative leaves the tail of a deep queue unseated when no
// entry in it can start before the next wakeup, so most forks here clone a
// queue with unseated entries and a plan that holds only the seated ones.
// A 90-job burst on 16 nodes keeps the queue deep for hours.
TEST(PolicyFstFork, ConsdynForksCloneUnseatedEntries) {
  const Workload w = workload::generate_small_workload(31, 90, 16, hours(2));
  for (const PriorityKind priority : {PriorityKind::Fairshare, PriorityKind::Fcfs}) {
    EngineConfig config;
    config.policy.kind = PolicyKind::ConservativeDynamic;
    config.policy.priority = priority;
    config.fairshare_period = minutes(30);
    const std::vector<Time> naive = policy_no_later_arrivals_fst_naive(w, config);
    obs::reset();
    obs::arm();
    const std::vector<Time> forked = policy_no_later_arrivals_fst(w, config);
    const std::uint64_t unseated = obs::counter_value(obs::Counter::kSchedDynamicUnseated);
    obs::reset();
    EXPECT_EQ(naive, forked) << "priority " << static_cast<int>(priority);
    EXPECT_GT(unseated, 0u) << "priority " << static_cast<int>(priority);
  }
}

// The max_runtime precondition applies to the oracle exactly like the forked
// path (same message).
TEST(PolicyFstFork, NaivePreconditionThrowsUnchanged) {
  const Workload w = workload::generate_small_workload(5, 20, 16, days(1));
  EngineConfig config;
  config.policy.max_runtime = hours(72);
  EXPECT_THROW(policy_no_later_arrivals_fst_naive(w, config), std::invalid_argument);
  try {
    policy_no_later_arrivals_fst_naive(w, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("max_runtime"), std::string::npos);
  }
}

/// Minimal greedy scheduler that does NOT override clone(): forking an
/// engine that runs it must fail loudly, not silently share state.
class NoCloneGreedy final : public Scheduler {
 public:
  std::string name() const override { return "no-clone-greedy"; }
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

TEST(PolicyFstFork, ForkRequiresCloneCapableScheduler) {
  const Workload w = workload::generate_small_workload(7, 10, 16, days(1));
  EngineConfig config;
  SimulationEngine engine(w, config, std::make_unique<NoCloneGreedy>());
  EXPECT_THROW(
      engine.run_with_arrival_hook([&](JobId id) { engine.fork_for_arrival(id); }),
      std::logic_error);
}

TEST(PolicyFstFork, ForkRejectsRuntimeLimitedEngines) {
  const Workload w = workload::generate_small_workload(7, 10, 16, days(1));
  EngineConfig config;
  config.policy.max_runtime = hours(1);
  SimulationEngine engine(w, config);
  EXPECT_THROW(
      engine.run_with_arrival_hook([&](JobId id) { engine.fork_for_arrival(id); }),
      std::logic_error);
}

// Forked engines trim their per-record bookkeeping to the fork's universe
// and still produce the exact start the naive truncated run produces — the
// state-equivalence argument checked at the engine level, one fork at a
// time, including a mid-run fork whose target starts much later.
TEST(PolicyFstFork, SingleForkMatchesTruncatedSimulation) {
  const Workload w = workload::generate_small_workload(13, 40, 32, days(1));
  EngineConfig config;
  config.policy.kind = PolicyKind::Cplant;
  config.record_snapshots = false;

  for (const JobId target : {JobId{0}, JobId{17}, JobId{39}}) {
    const Workload truncated = w.truncate(static_cast<std::size_t>(target) + 1);
    const SimulationResult oracle = simulate(truncated, config);

    SimulationEngine master(w, config);
    Time forked_start = kNoTime;
    master.run_with_arrival_hook([&](JobId id) {
      if (id == target) forked_start = master.fork_for_arrival(id)->run_until_started(id);
    });
    EXPECT_EQ(forked_start, oracle.records.at(static_cast<std::size_t>(target)).start)
        << "target " << target;
  }
}

// Wait queues keep their priority order between fairshare publishes and a
// clone carries the sort epoch along, so a fork taken before a publish
// boundary and drained across it must re-sort exactly where the truncated
// run does. One such fork per policy class and priority-ordered queue.
TEST(PolicyFstFork, ForkDrainedAcrossAPublishBoundary) {
  const Workload w = workload::generate_small_workload(23, 120, 32, days(3));
  std::vector<PolicyConfig> policies = nine_policies_nomax();
  for (const char* name : {"easy.fairshare", "fcfs.fairshare", "depth4"})
    policies.push_back(*policy_from_name(name));
  const auto publish_index = [](Time t) { return util::floor_div(t, days(1)); };

  for (const PolicyConfig& policy : policies) {
    SCOPED_TRACE(policy.display_name());
    EngineConfig config;
    config.policy = policy;
    config.record_snapshots = false;
    // The first job whose truncated-run start lies past a publish boundary
    // its arrival precedes.
    JobId target = kInvalidJob;
    Time expected = kNoTime;
    for (JobId id = 0; id < static_cast<JobId>(w.jobs.size()) && target == kInvalidJob; ++id) {
      const Job& job = w.jobs[static_cast<std::size_t>(id)];
      const Time start = simulate(w.truncate(static_cast<std::size_t>(id) + 1), config)
                             .records.at(static_cast<std::size_t>(id))
                             .start;
      if (publish_index(start) > publish_index(job.submit)) {
        target = id;
        expected = start;
      }
    }
    ASSERT_NE(target, kInvalidJob) << "no job waits across a publish";

    SimulationEngine master(w, config);
    Time forked_start = kNoTime;
    master.run_with_arrival_hook([&](JobId id) {
      if (id == target) forked_start = master.fork_for_arrival(id)->run_until_started(id);
    });
    EXPECT_EQ(forked_start, expected) << "target " << target;
  }
}

}  // namespace
}  // namespace psched::sim
