#pragma once
// The seed implementation of the policy-knowledge FST
// (sim::policy_no_later_arrivals_fst), preserved verbatim as its behavioural
// oracle: one truncated-workload re-simulation per job, O(n^2) simulated
// events overall. tests/test_sim_fork.cpp pins the forked engine
// byte-identical to it; bench/perf_fst.cpp measures the pair
// (BM_PolicyFstForked vs BM_RefPolicyFstNaive). Linked by tests and benches
// only, never by libpsched.

#include <vector>

#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"

namespace psched::sim {

/// fair_start[i] = start of workload.jobs[i] in a simulation of the workload
/// truncated after jobs[i]. Same contract and precondition as
/// policy_no_later_arrivals_fst (options.fork_batch and options.stats are
/// ignored).
std::vector<Time> policy_no_later_arrivals_fst_naive(const Workload& workload,
                                                     const EngineConfig& config,
                                                     const PolicyFstOptions& options = {});

}  // namespace psched::sim
