#include "oracles/policy_fst_naive.hpp"

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace psched::sim {

std::vector<Time> policy_no_later_arrivals_fst_naive(const Workload& workload,
                                                     const EngineConfig& config,
                                                     const PolicyFstOptions& options) {
  if (config.policy.max_runtime != kNoTime)
    throw std::invalid_argument(
        "policy_no_later_arrivals_fst_naive: requires config.policy.max_runtime == kNoTime — "
        "segment chaining has no well-defined per-original start");

  const std::size_t n = workload.jobs.size();
  std::vector<Time> fair_start(n, kNoTime);

  const auto compute_one = [&](std::size_t i) {
    // A truncation is a view over the shared job table — ids already match
    // indices and the target is the last job.
    const Workload truncated = workload.truncate(i + 1);
    EngineConfig run = config;
    run.record_snapshots = false;
    const SimulationResult result = simulate(truncated, run);
    fair_start[i] = result.records.at(i).start;
  };

  if (options.parallel)
    util::parallel_for(n, compute_one);
  else
    for (std::size_t i = 0; i < n; ++i) compute_one(i);
  return fair_start;
}

}  // namespace psched::sim
