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

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace psched::sim {

/// Observability counters filled by policy_no_later_arrivals_fst when the
/// caller wires PolicyFstOptions::stats. Deterministic for a given
/// (workload, config, options) triple.
struct PolicyFstStats {
  std::size_t forks = 0;                  ///< forks taken (== job count)
  std::size_t drained = 0;                ///< forks that paid a drain tail
  std::size_t resolved_from_master = 0;   ///< answered free from the master pass
  std::size_t fork_batch = 0;             ///< the batch cap actually used
  /// Max over drain batches of the summed fork footprints
  /// (SimulationEngine::fork_footprint_bytes) alive at drain time — the
  /// peak engine-state memory the bounded batching admits.
  std::size_t peak_batch_bytes = 0;
};

struct PolicyFstOptions {
  /// Drain forks concurrently on the global pool (results are byte-identical
  /// to a serial drain: each fork is independent and writes one integer to
  /// its own result slot).
  bool parallel = true;
  /// Forks accumulated before a drain. 0 = automatic (the historical
  /// behavior: max(4 * pool size, 16) when parallel, 16 serial). Peak memory
  /// scales with this times the per-fork O(queue) footprint; latency on wide
  /// pools wants it >= the pool size.
  std::size_t fork_batch = 0;
  /// Optional out-param for drain observability; untouched when null.
  PolicyFstStats* stats = nullptr;
};

/// fair_start[i] = start of workload.jobs[i] when the simulation is re-run
/// with every job submitted after jobs[i] removed (same-submit ties with a
/// lower id are kept). Requires config.policy.max_runtime == kNoTime, since
/// segment chaining has no well-defined per-original start.
std::vector<Time> policy_no_later_arrivals_fst(const Workload& workload,
                                               const EngineConfig& config,
                                               const PolicyFstOptions& options = {});

}  // namespace psched::sim
