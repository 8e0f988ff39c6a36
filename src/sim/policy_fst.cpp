#include "sim/policy_fst.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace psched::sim {

std::vector<Time> policy_no_later_arrivals_fst(const Workload& workload,
                                               const EngineConfig& config,
                                               const PolicyFstOptions& options) {
  if (config.policy.max_runtime != kNoTime)
    throw std::invalid_argument(
        "policy_no_later_arrivals_fst: requires config.policy.max_runtime == kNoTime — "
        "segment chaining has no well-defined per-original start");

  const std::size_t n = workload.jobs.size();
  std::vector<Time> fair_start(n, kNoTime);
  if (n == 0) return fair_start;

  EngineConfig run = config;
  run.record_snapshots = false;

  // One full pass: the master engine simulates the whole workload and forks
  // itself at every arrival; each fork sees no later arrivals and is drained
  // until its job starts. Forks are independent (they share only the
  // read-only workload), so batches of them drain concurrently as leaf tasks
  // — safe to help-drain from inside another pool task, and byte-identical
  // to a serial drain (one integer write per fork, each to its own slot).
  // The batch is bounded to keep peak memory at O(batch * engine) instead of
  // accumulating all n forks.
  // Serial draining uses the same bounded batch as parallel: deferring a
  // fork's drain to a later hook lets the master answer it for free via the
  // resolve-without-drain check below (draining inside the fork's own hook
  // would find recorded_start still unset and always pay the full tail).
  std::vector<std::pair<JobId, std::unique_ptr<SimulationEngine>>> batch;
  const std::size_t batch_cap =
      options.fork_batch > 0
          ? options.fork_batch
          : std::max<std::size_t>(options.parallel ? 4 * util::global_pool().size() : 0, 16);
  batch.reserve(batch_cap);
  // Stats are kept unconditionally (integer bookkeeping is free); only the
  // per-batch footprint walk — a fork_footprint_bytes() sweep — stays gated
  // on someone actually consuming it (the caller's out-param or armed obs).
  PolicyFstStats local_stats;
  PolicyFstStats* stats = options.stats != nullptr ? options.stats : &local_stats;
  *stats = PolicyFstStats{};
  stats->forks = n;
  stats->fork_batch = batch_cap;
  const bool want_batch_bytes = options.stats != nullptr || obs::armed();

  SimulationEngine master(workload, run);
  const SimulationResult* master_result = nullptr;  // set once the pass ends

  // A fork's universe diverges from the master only when the first later
  // arrival is delivered — at jobs[target + 1].submit. A master start
  // strictly before that instant was therefore decided in still-identical
  // state and IS the fork's start: resolve it without draining. (The last
  // job never diverges; its fork is always resolved from the master.)
  const auto resolved_without_drain = [&](JobId target) {
    const Time start = master_result != nullptr
                           ? master_result->records[static_cast<std::size_t>(target)].start
                           : master.recorded_start(target);
    const auto next = static_cast<std::size_t>(target) + 1;
    if (start == kNoTime || (next < n && start >= workload.jobs[next].submit))
      return kNoTime;  // unknown or post-divergence: the fork must be drained
    return start;
  };

  std::vector<std::size_t> pending;  // batch indices that genuinely need a drain
  const auto drain_batch = [&] {
    if (batch.empty()) return;
    obs::Span batch_span("fork-batch");
    if (obs::armed()) batch_span.set_arg(std::to_string(batch.size()) + " forks");
    if (want_batch_bytes) {
      // Peak engine-state memory this batch admitted: every fork in it is
      // still alive here, before resolution frees any of them.
      std::size_t batch_bytes = 0;
      for (const auto& entry : batch) batch_bytes += entry.second->fork_footprint_bytes();
      stats->peak_batch_bytes = std::max(stats->peak_batch_bytes, batch_bytes);
    }
    pending.clear();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Time resolved = resolved_without_drain(batch[k].first);
      if (resolved != kNoTime) {
        fair_start[static_cast<std::size_t>(batch[k].first)] = resolved;
        batch[k].second.reset();
      } else {
        pending.push_back(k);
      }
    }
    const auto drain_one = [&](std::size_t p) {
      auto& [target, fork] = batch[pending[p]];
      fair_start[static_cast<std::size_t>(target)] = fork->run_until_started(target);
      fork.reset();  // free the fork as soon as it is drained
    };
    if (options.parallel)
      util::parallel_for(pending.size(), drain_one);
    else
      for (std::size_t p = 0; p < pending.size(); ++p) drain_one(p);
    stats->drained += pending.size();
    stats->resolved_from_master += batch.size() - pending.size();
    batch.clear();
  };

  const SimulationResult result = master.run_with_arrival_hook([&](JobId id) {
    batch.emplace_back(id, master.fork_for_arrival(id));
    if (batch.size() >= batch_cap) drain_batch();
  });
  master_result = &result;  // run() moved the records out of the engine
  drain_batch();
  obs::count(obs::Counter::kFstForks, stats->forks);
  obs::count(obs::Counter::kFstForksDrained, stats->drained);
  obs::count(obs::Counter::kFstResolvedFromMaster, stats->resolved_from_master);
  obs::record_max(obs::Counter::kFstPeakBatchBytes, stats->peak_batch_bytes);
  return fair_start;
}

}  // namespace psched::sim
