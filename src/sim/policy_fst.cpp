#include "sim/policy_fst.hpp"

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace psched::sim {

PolicyFstRun simulate_with_policy_fst(const Workload& workload, const EngineConfig& config,
                                      const PolicyFstOptions& options) {
  if (config.policy.max_runtime != kNoTime)
    throw std::invalid_argument(
        "policy_no_later_arrivals_fst: requires config.policy.max_runtime == kNoTime — "
        "segment chaining has no well-defined per-original start");

  const std::size_t n = workload.jobs.size();
  PolicyFstRun out;
  std::vector<Time>& fair_start = out.fair_start;
  fair_start.assign(n, kNoTime);

  // One full pass: the master engine simulates the whole workload and forks
  // itself at every arrival; each fork sees no later arrivals and is drained
  // until its job starts. Forks are independent (they share only the
  // read-only workload), so their drains run as pool leaf tasks while the
  // master keeps simulating — the same bytes on any pool (one integer write
  // per fork, each to its own slot).
  // Forks gather in batches, and each batch boundary first tries to resolve
  // them from the master (resolve-without-drain below): deferring that check
  // past the fork's own hook lets the master answer most forks for free.
  std::vector<std::pair<JobId, std::unique_ptr<SimulationEngine>>> batch;
  util::ThreadPool& pool = util::global_pool();
  const std::size_t batch_cap =
      options.fork_batch > 0 ? options.fork_batch : std::max<std::size_t>(4 * pool.size(), 16);
  batch.reserve(batch_cap);
  // In-flight drains are bounded in forks, not completions: peak memory is
  // O(window * engine), and drains retire at the same boundaries on any pool.
  const std::size_t window_cap = 4 * batch_cap;
  // Stats are kept unconditionally (integer bookkeeping is free); only the
  // footprint walk — a fork_footprint_bytes() call per fork — stays gated on
  // someone actually consuming it (the caller's out-param or armed obs).
  PolicyFstStats local_stats;
  PolicyFstStats* stats = options.stats != nullptr ? options.stats : &local_stats;
  *stats = PolicyFstStats{};
  stats->forks = n;
  stats->fork_batch = batch_cap;
  const bool want_batch_bytes = options.stats != nullptr || obs::armed();

  SimulationEngine master(workload, config);
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

  // In-flight drains, oldest first. Targets ascend through the window, so
  // retiring from the front rethrows the lowest failing target's error. A
  // deque keeps each entry in place while its task writes through it.
  struct Drain {
    JobId target;
    std::unique_ptr<SimulationEngine> fork;
    std::size_t bytes;  ///< footprint when forked, counted until retired
    std::future<void> done;
  };
  std::deque<Drain> window;
  std::size_t window_bytes = 0;
  const auto launch = [&](Drain& drain) {
    drain.done = pool.submit_leaf([&fair_start, &drain] {
      fair_start[static_cast<std::size_t>(drain.target)] =
          drain.fork->run_until_started(drain.target);
      drain.fork.reset();  // free the fork as soon as it is drained
    });
  };
  const auto retire_front = [&] {
    pool.wait(window.front().done);
    std::future<void> done = std::move(window.front().done);
    window_bytes -= window.front().bytes;
    window.pop_front();
    done.get();  // rethrows the drain's error
  };

  // One batch boundary: resolve or launch every fork of the batch, then
  // retire the oldest drains until at most `keep` are in flight.
  const auto end_batch = [&](std::size_t keep) {
    if (batch.empty() && window.size() <= keep) return;
    obs::Span batch_span("fork-batch");
    if (obs::armed()) batch_span.set_arg(std::to_string(batch.size()) + " forks");
    std::size_t held_bytes = window_bytes;  // drains still held from earlier batches
    for (auto& [target, fork] : batch) {
      const std::size_t bytes = want_batch_bytes ? fork->fork_footprint_bytes() : 0;
      held_bytes += bytes;
      const Time resolved = resolved_without_drain(target);
      if (resolved != kNoTime) {
        fair_start[static_cast<std::size_t>(target)] = resolved;
        fork.reset();
        ++stats->resolved_from_master;
        continue;
      }
      Drain& drain = window.emplace_back(Drain{target, std::move(fork), bytes, {}});
      window_bytes += bytes;
      ++stats->drained;
      launch(drain);
    }
    stats->peak_batch_bytes = std::max(stats->peak_batch_bytes, held_bytes);
    batch.clear();
    while (window.size() > keep) retire_front();
  };

  try {
    out.simulation = master.run_with_arrival_hook([&](JobId id) {
      batch.emplace_back(id, master.fork_for_arrival(id));
      if (batch.size() >= batch_cap) end_batch(window_cap);
    });
    master_result = &out.simulation;  // run() moved the records out of the engine
    end_batch(0);
  } catch (...) {
    // A drain still in flight writes into fair_start and its window entry:
    // wait for every one before unwinding. Their own errors are dropped; the
    // one in flight here is the master's (a cancelled pass, say) or the
    // lowest failing target's.
    for (const Drain& drain : window)
      if (drain.done.valid()) pool.wait(drain.done);
    throw;
  }
  obs::count(obs::Counter::kFstForks, stats->forks);
  obs::count(obs::Counter::kFstForksDrained, stats->drained);
  obs::count(obs::Counter::kFstResolvedFromMaster, stats->resolved_from_master);
  obs::record_max(obs::Counter::kFstPeakBatchBytes, stats->peak_batch_bytes);
  return out;
}

std::vector<Time> policy_no_later_arrivals_fst(const Workload& workload,
                                               const EngineConfig& config,
                                               const PolicyFstOptions& options) {
  EngineConfig run = config;
  run.record_snapshots = false;
  return simulate_with_policy_fst(workload, run, options).fair_start;
}

}  // namespace psched::sim
