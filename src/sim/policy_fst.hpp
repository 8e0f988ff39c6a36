#pragma once
// The earlier Sabin/Sadayappan FST variant discussed in paper section 4: a
// job's fair start time is its start in a re-run of the *actual scheduling
// policy* on a universe where no later jobs ever arrive. Directly measures
// whether later arrivals hurt the job.
//
// Computed with the forkable engine: ONE full simulation, forked at every
// arrival (engine state at job i's arrival is identical whether or not jobs
// i+1..n exist — see SimulationEngine::fork_for_arrival), each fork drained
// with no further arrivals until its job starts. Cost is one pass plus the
// fork tails instead of the seed's n truncated re-simulations (O(n^2)
// simulated events); bench/perf_fst.cpp measures the pair
// (BM_PolicyFstForked vs BM_RefPolicyFstNaive) and the win grows with trace
// length. The naive re-simulation is preserved as the behavioral oracle in
// oracles/policy_fst_naive.hpp (test and bench builds only) — tests pin the
// two byte-identical for every policy.
//
// The master pass is also the policy's own simulation
// (simulate_with_policy_fst), so an experiment cell simulates its trace
// once. Fork drains run as pool leaf tasks behind the master; it waits,
// help-draining, only when 4 * fork_batch drains are in flight and at the
// end of the pass.
#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace psched::sim {

/// Observability counters filled by the policy-FST pass when the caller
/// wires PolicyFstOptions::stats. Deterministic for a given
/// (workload, config, options) triple.
struct PolicyFstStats {
  std::size_t forks = 0;                  ///< forks taken (== job count)
  std::size_t drained = 0;                ///< forks that paid a drain tail
  std::size_t resolved_from_master = 0;   ///< answered free from the master pass
  std::size_t fork_batch = 0;             ///< the batch cap actually used
  /// Max over batch boundaries of the summed fork footprints
  /// (SimulationEngine::fork_footprint_bytes, taken when each fork is made)
  /// held there: the boundary's whole batch plus the drains still in the
  /// window from earlier batches. The window is counted in forks, not in
  /// completions, so the value does not depend on thread timing.
  std::size_t peak_batch_bytes = 0;
};

struct PolicyFstOptions {
  /// Forks accumulated before a batch boundary, where each fork is resolved
  /// from the master or its drain starts on the global pool. 0 = automatic
  /// (max(4 * pool size, 16)). At most 4 * fork_batch drains are in flight,
  /// so peak memory scales with this times the per-fork O(queue) footprint;
  /// latency on wide pools wants it >= the pool size.
  std::size_t fork_batch = 0;
  /// Optional out-param for drain observability; untouched when null.
  PolicyFstStats* stats = nullptr;
};

/// One simulation and its policy-knowledge fair starts.
struct PolicyFstRun {
  SimulationResult simulation;
  std::vector<Time> fair_start;
};

/// One engine pass that is both `config`'s simulation (arrival usage
/// recorded as configured; forks never record any) and the fork master: `simulation`
/// equals simulate(workload, config) and `fair_start` equals
/// policy_no_later_arrivals_fst(workload, config, options). Throws
/// std::invalid_argument before simulating when config.policy.max_runtime is
/// set. Every drain has finished before it returns or throws; of several
/// failing drains the lowest target's error is rethrown.
PolicyFstRun simulate_with_policy_fst(const Workload& workload, const EngineConfig& config,
                                      const PolicyFstOptions& options = {});

/// fair_start[i] = start of workload.jobs[i] when the simulation is re-run
/// with every job submitted after jobs[i] removed (same-submit ties with a
/// lower id are kept). Requires config.policy.max_runtime == kNoTime, since
/// segment chaining has no well-defined per-original start. The pass above
/// with record_snapshots off.
std::vector<Time> policy_no_later_arrivals_fst(const Workload& workload,
                                               const EngineConfig& config,
                                               const PolicyFstOptions& options = {});

}  // namespace psched::sim
