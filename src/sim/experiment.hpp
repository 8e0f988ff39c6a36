#pragma once
// Experiment runner: one workload, many policies. Every figure binary in
// bench/ and each campaign group funnel through this.
//
// A runner is the (workload, engine config, FST options) bundle a sweep
// shares; it holds no per-policy state. run() is const and lock-free, and
// every result is owned by whoever asked for it. Deduplicating configs is the
// caller's job: campaign plans already drop duplicate
// PolicyConfig::canonical_key()s (scenario::expand_campaign), and a config
// asked for twice is simply simulated twice. A config is simulated once per
// run() even with the policy-knowledge FST: its fork master is the cell's
// simulation (sim::simulate_with_policy_fst).

#include <exception>
#include <functional>
#include <optional>
#include <vector>

#include "metrics/report.hpp"
#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"
#include "util/stop_token.hpp"

namespace psched::sim {

struct ExperimentResult {
  PolicyConfig policy;
  SimulationResult simulation;
  metrics::PolicyReport report;
  /// Drain observability from the policy-knowledge FST pass (zeros when the
  /// metric set never selected it). Deterministic per (workload, config).
  PolicyFstStats fst_stats;
};

/// The per-policy outcome of a fault-isolated sweep (run_isolated): exactly
/// one of `result`/`error` is set for an attempted cell; both are empty when
/// the sweep stopped before the cell was ever pulled. Move-only: the result
/// carries the whole simulation, so it is never copied.
struct CellOutcome {
  CellOutcome() = default;
  CellOutcome(CellOutcome&&) = default;
  CellOutcome& operator=(CellOutcome&&) = default;
  CellOutcome(const CellOutcome&) = delete;
  CellOutcome& operator=(const CellOutcome&) = delete;

  std::optional<ExperimentResult> result;
  std::exception_ptr error;
  /// Lane wall time, for campaign breakdowns. Only measured while obs
  /// tracing is armed (0.0 otherwise), so no result byte depends on it.
  double wall_seconds = 0.0;
};

/// Hooks and knobs for run_isolated.
struct IsolatedRunOptions {
  /// Concurrent lanes (0 = global pool size, 1 = serial).
  std::size_t jobs = 0;
  /// Sweep-wide stop: once tripped, lanes stop pulling new cells (cells
  /// already in flight are cancelled through their own tokens when those
  /// chain to this one).
  util::StopToken stop;
  /// false: the first failing cell also stops lanes from pulling new cells
  /// (already-pulled cells still finish and are reported).
  bool keep_going = true;
  /// Per-cell token factory, called in the lane immediately before the cell
  /// starts (so deadlines measure per-cell wall clock). Default: `stop`.
  std::function<util::StopToken(std::size_t)> cell_stop;
  /// Called in the lane after the token is built and before the simulation —
  /// the test-only fault-injection point; a throw becomes the cell's error.
  std::function<void(std::size_t, const util::StopToken&)> on_start;
  /// Called once per attempted cell as it finishes, serialized under an
  /// internal mutex (safe to append to a journal). Must not throw. It may
  /// move out of or reset the outcome (a sweep that keeps only the reports
  /// frees each simulation here, so peak memory follows the lanes, not the
  /// cells); the returned vector holds whatever it leaves.
  std::function<void(std::size_t, CellOutcome&)> on_finish;
};

class ExperimentRunner {
 public:
  /// `base` supplies everything except the policy (fairshare decay, WCL
  /// enforcement, arrival-usage recording); `fst_options` is the metric
  /// configuration every report is evaluated with (tolerance, knowledge
  /// model). The workload is copied once and is read-only afterwards, so
  /// concurrent simulations can share it.
  ExperimentRunner(Workload workload, EngineConfig base = {},
                   metrics::FstOptions fst_options = {});

  /// Simulate `policy`, evaluate its report and, when the FST options ask
  /// for it, the policy-knowledge FST from the same pass (a max_runtime
  /// policy then throws std::invalid_argument before simulating). Safe to
  /// call from many threads at once. `stop` (when valid) cancels the
  /// simulation and its fork drains at an event boundary with
  /// SimulationCancelled; empty falls back to the base config's token.
  ExperimentResult run(const PolicyConfig& policy, util::StopToken stop = {}) const;

  /// The one policy sweep: up to `options.jobs` lanes on util::global_pool()
  /// pull policies in input order, and each policy gets its own CellOutcome
  /// (result, error, or never-attempted when the sweep stopped first).
  /// Outcomes are byte-identical to a serial sweep regardless of thread
  /// count: each simulation owns all its mutable state, and the FST
  /// aggregation inside each run is index-deterministic. Never throws for
  /// cell-level failures; exceptions escaping on_finish are rethrown after
  /// all lanes join. The campaign runner builds its per-cell status rows,
  /// timeouts and journal records on top of this.
  std::vector<CellOutcome> run_isolated(const std::vector<PolicyConfig>& policies,
                                        const IsolatedRunOptions& options = {}) const;

  /// run_isolated with `keep_going = false`, for callers that want every
  /// result or an exception (0 jobs = pool size; 1 = serial). Results come
  /// back in input order. A failure stops lanes from pulling new policies,
  /// and after all lanes join the lowest-index error is rethrown; a tripped
  /// `stop` that left policies unattempted surfaces as SimulationCancelled.
  std::vector<ExperimentResult> run_all(const std::vector<PolicyConfig>& policies,
                                        std::size_t jobs = 0, util::StopToken stop = {}) const;

  const Workload& workload() const { return workload_; }
  const EngineConfig& base_config() const { return base_; }

 private:
  Workload workload_;
  EngineConfig base_;
  metrics::FstOptions fst_options_;
};

}  // namespace psched::sim
