#pragma once
// One-stop policy evaluation: bundle the standard metrics and the hybrid
// fairness metrics for a finished run, and render comparison tables in the
// layout the paper's figures use (policies as series, width categories as
// the x axis).

#include <string>
#include <vector>

#include "metrics/fst.hpp"
#include "metrics/standard.hpp"
#include "util/table.hpp"

namespace psched::metrics {

struct PolicyReport {
  std::string policy;
  StandardMetrics standard;
  FstResult fairness;
  /// The policy-knowledge FST (FstOptions::policy_knowledge), filled only by
  /// ExperimentRunner — it needs the workload and engine config to re-run the
  /// policy, which evaluate() does not have. Selecting a policy_* metric on a
  /// report without it is a hard error, never a silent zero.
  bool has_policy_fairness = false;
  FstResult policy_fairness;
};

/// Compute both metric families (the hybrid FST needs the arrival usage).
PolicyReport evaluate(const SimulationResult& result, const FstOptions& options = {});

/// Figures 8/14: one row per policy with the scalar fairness numbers.
util::TextTable fairness_summary_table(const std::vector<PolicyReport>& reports);

/// Figures 11/17 + 13/19: one row per policy with the user/system numbers.
util::TextTable performance_summary_table(const std::vector<PolicyReport>& reports);

/// Figures 10/16: rows = width categories, one column per policy
/// (average miss time).
util::TextTable miss_by_width_table(const std::vector<PolicyReport>& reports);

}  // namespace psched::metrics
