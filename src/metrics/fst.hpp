#pragma once
// Fair-start-time (FST) fairness metrics for parallel job scheduling
// (paper section 4).
//
// Hybrid "fairshare" FST (section 4.1, the paper's contribution): for each
// job, take the system exactly as it stood when the job arrived (running
// jobs with their remaining runtimes, the waiting queue with its fairshare
// priorities, both derived from the final records) and build a *no-holes
// list schedule* of the waiting jobs in fairshare order. The job's start time in
// that hypothetical schedule is its fair start time; starting later than the
// FST in the real schedule means lower-priority jobs got in its way.
//
//   AverageMissTime = sum_j max(0, start_j - FST_j) / |jobs|        (Eq. 5)
//   PercentUnfair   = |{j : start_j - FST_j > tolerance}| / |jobs|
//
// Also provided: the CONS_P FST of Srinivasan et al. (start times in a
// global conservative-backfilling schedule with FCFS priority and perfect
// estimates), computable without re-running a policy because perfect
// estimates make conservative reservations final.

#include <array>
#include <cstddef>
#include <vector>

#include "core/categories.hpp"
#include "core/record.hpp"

namespace psched::metrics {

/// Which runtimes the hypothetical FST schedule is built from.
enum class FstKnowledge {
  /// User estimates (WCL) for waiting jobs and WCL-based remaining time for
  /// running jobs — the information the real scheduler acts on. The fair
  /// reference is then "the fairshare list schedule the scheduler itself
  /// could have built", which is the interpretation that reproduces the
  /// paper's policy ordering.
  Estimates,
  /// Actual runtimes everywhere (the CONS_P "perfect estimates" convention).
  Perfect,
};

struct FstOptions {
  /// A job is counted "unfair" when start - FST exceeds this. One decay
  /// period (24 h) is the materiality threshold that reproduces the paper's
  /// policy ordering: it separates jobs genuinely pushed back by lower
  /// priority work from jobs nudged by scheduling jitter. Set to 1 for the
  /// strict "any miss" count (also always reported as percent_unfair_any).
  Time tolerance = hours(24);
  FstKnowledge knowledge = FstKnowledge::Estimates;
  /// Sweep chunks of the arrivals on the global thread pool.
  bool parallel = true;
  /// Also compute the policy-knowledge FST (Sabin/Sadayappan: re-run the
  /// actual policy with no later arrivals, sim::policy_no_later_arrivals_fst)
  /// and publish it as PolicyReport::policy_fairness. Needs the workload and
  /// engine config, so only ExperimentRunner honors it — evaluate() alone
  /// cannot and leaves the field empty. Requires max_runtime == kNoTime.
  bool policy_knowledge = false;
  /// Fork batch for the policy-knowledge FST (sim::PolicyFstOptions::
  /// fork_batch): forks accumulated before a drain. 0 = the historical
  /// automatic cap. Peak memory scales with batch x per-fork O(queue) state.
  std::size_t fork_batch = 0;
};

struct FstResult {
  std::vector<Time> fair_start;  ///< per record id
  std::vector<Time> miss;        ///< max(0, start - fair_start)

  double percent_unfair = 0.0;      ///< Figure 8/14 quantity (at tolerance)
  double percent_unfair_any = 0.0;  ///< strict count: any miss > 1 s
  double percent_unfair_load = 0.0; ///< proc-second-weighted share of unfair work
  double avg_miss_all = 0.0;     ///< Eq. 5 (averaged over all jobs)
  double avg_miss_unfair = 0.0;  ///< averaged over unfair jobs only
  double max_miss = 0.0;

  std::array<double, kWidthCategories> avg_miss_by_width{};   ///< Figures 10/16
  std::array<std::size_t, kWidthCategories> jobs_by_width{};
  std::array<std::size_t, kWidthCategories> unfair_by_width{};
};

/// The paper's hybrid fairshare FST. Each arrival's state (running jobs,
/// and the waiting jobs ahead of it in fairshare order) is rebuilt from
/// result.records and the usage each arrival saw (result.arrival_usage), in
/// one sweep over the arrivals in (submit, id) order: O(jobs + users x
/// epochs) memory beside the result. Throws std::invalid_argument when the
/// arrival usage is missing (the engine ran with record_snapshots = false)
/// or names no row or user for some record.
FstResult hybrid_fairshare_fst(const SimulationResult& result, const FstOptions& options = {});

/// CONS_P FST: one conservative FCFS perfect-estimate schedule of the whole
/// record set; each record's start therein is its FST.
FstResult cons_p_fst(const SimulationResult& result, const FstOptions& options = {});

/// Shared aggregation: fill the summary fields from fair_start + the records.
void aggregate_fst(const SimulationResult& result, const FstOptions& options, FstResult& fst);

}  // namespace psched::metrics
