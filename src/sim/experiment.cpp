#include "sim/experiment.hpp"

#include <atomic>
#include <mutex>
#include <utility>

#include "obs/clock.hpp"
#include "obs/obs.hpp"
#include "sim/policy_fst.hpp"
#include "util/thread_pool.hpp"

namespace psched::sim {

ExperimentRunner::ExperimentRunner(Workload workload, EngineConfig base,
                                   metrics::FstOptions fst_options)
    : workload_(std::move(workload)), base_(std::move(base)), fst_options_(fst_options) {
  workload_.validate();
}

ExperimentResult ExperimentRunner::run(const PolicyConfig& policy, util::StopToken stop) const {
  ExperimentResult result;
  result.policy = policy;
  EngineConfig config = base_;
  config.policy = policy;
  if (stop.valid()) config.stop = stop;
  if (!fst_options_.policy_knowledge) {
    result.simulation = simulate(workload_, config);
    result.report = metrics::evaluate(result.simulation, fst_options_);
    return result;
  }
  // The forked-engine FST re-runs the policy itself, so it needs the
  // workload and config — this is the one place with both in hand. Its
  // master pass is the cell's simulation, so the trace is simulated once.
  // The fork drains help-drain safely from inside a sweep lane's pool task.
  PolicyFstOptions policy_options;
  policy_options.fork_batch = fst_options_.fork_batch;
  policy_options.stats = &result.fst_stats;
  PolicyFstRun pass = simulate_with_policy_fst(workload_, config, policy_options);
  result.simulation = std::move(pass.simulation);
  result.report = metrics::evaluate(result.simulation, fst_options_);
  result.report.policy_fairness.fair_start = std::move(pass.fair_start);
  metrics::aggregate_fst(result.simulation, fst_options_, result.report.policy_fairness);
  result.report.has_policy_fairness = true;
  return result;
}

std::vector<ExperimentResult> ExperimentRunner::run_all(const std::vector<PolicyConfig>& policies,
                                                       std::size_t jobs,
                                                       util::StopToken stop) const {
  IsolatedRunOptions options;
  options.jobs = jobs;
  options.stop = stop;
  options.keep_going = false;
  std::vector<CellOutcome> outcomes = run_isolated(policies, options);
  // The lowest-index error wins, so the rethrown exception does not depend on
  // which lane failed first.
  for (const CellOutcome& outcome : outcomes)
    if (outcome.error) std::rethrow_exception(outcome.error);
  // A tripped token can leave slots unvisited without any cell failing;
  // callers read every slot, so surface the cancellation instead.
  std::vector<ExperimentResult> results;
  results.reserve(outcomes.size());
  for (CellOutcome& outcome : outcomes) {
    if (!outcome.result) throw SimulationCancelled(stop.reason());
    results.push_back(std::move(*outcome.result));
  }
  return results;
}

std::vector<CellOutcome> ExperimentRunner::run_isolated(const std::vector<PolicyConfig>& policies,
                                                        const IsolatedRunOptions& options) const {
  obs::Span sweep_span("sweep");
  const std::size_t n = policies.size();
  std::vector<CellOutcome> outcomes(n);
  util::ThreadPool& pool = util::global_pool();
  std::size_t jobs = options.jobs == 0 ? pool.size() : options.jobs;
  jobs = std::min(jobs, n);

  // Lanes pull cell indices from a shared counter, so a slow policy (consdyn)
  // never serializes the rest behind a fixed partition.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> halt{false};
  std::mutex finish_mutex;
  const auto lane = [&] {
    while (!halt.load(std::memory_order_relaxed) && !options.stop.stop_requested()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      CellOutcome& outcome = outcomes[i];  // each lane writes only its own slots
      {
        obs::Span cell_span("cell");
        const std::uint64_t cell_t0 = obs::armed() ? obs::now_us() : 0;
        if (obs::armed()) cell_span.set_arg(policies[i].display_name());
        try {
          // Build the cell's token before on_start so timeouts measure from
          // the instant the cell is picked up, fault hooks included.
          const util::StopToken token =
              options.cell_stop ? options.cell_stop(i) : options.stop;
          if (options.on_start) options.on_start(i, token);
          outcome.result = run(policies[i], token);
        } catch (...) {
          outcome.error = std::current_exception();
          if (!options.keep_going) halt.store(true, std::memory_order_relaxed);
        }
        // Errors are timed too — a timed-out cell's lane occupancy is exactly
        // what a breakdown reader wants to see.
        if (obs::armed())
          outcome.wall_seconds = static_cast<double>(obs::now_us() - cell_t0) * 1e-6;
      }
      if (options.on_finish) {
        const std::lock_guard<std::mutex> guard(finish_mutex);
        options.on_finish(i, outcome);
      }
    }
  };

  // Lanes are compound pool work, never help-drained into another cell's
  // wait (see util/thread_pool.hpp). A sweep started from inside a pool task
  // could then wait on workers that are all occupied by its ancestors, so it
  // runs serially there instead.
  if (jobs <= 1 || util::ThreadPool::in_pool_task()) {
    lane();
    return outcomes;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(jobs);
  for (std::size_t j = 0; j + 1 < jobs; ++j) futures.push_back(pool.submit(lane));
  std::exception_ptr first_error;  // only on_finish can throw out of a lane
  try {
    lane();
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& future : futures) {
    try {
      future.get();
    } catch (const util::SubmitRejected&) {
      // Rejected lane: the remaining lanes pull its share of cells from the
      // shared counter, so the sweep completes with less parallelism.
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return outcomes;
}

}  // namespace psched::sim
