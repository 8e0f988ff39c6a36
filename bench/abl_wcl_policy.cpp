// Ablation: wall-clock-limit enforcement. CPlant killed over-running jobs
// only when the processors were needed (paper section 2.2); trace replay
// conventionally never kills. This quantifies the difference.

#include <iostream>

#include "common/experiment_env.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);

  const Workload trace = bench::ablation_trace();
  bench::print_header(
      "Ablation: WCL enforcement",
      "baseline policy under Never / KillIfNeeded / Always enforcement",
      "under-estimating jobs are <3% of the trace, so enforcement barely moves aggregate "
      "metrics; Always truncates the most work",
      trace, bench::ablation_scale());

  util::TextTable table({"enforcement", "killed_jobs", "lost_proc_hours", "avg_turnaround_s",
                         "percent_unfair", "loc"});
  const std::pair<sim::WclEnforcement, const char*> modes[] = {
      {sim::WclEnforcement::Never, "never"},
      {sim::WclEnforcement::KillIfNeeded, "kill-if-needed"},
      {sim::WclEnforcement::Always, "always"},
  };
  for (const auto& [mode, label] : modes) {
    sim::EngineConfig config;
    config.policy.kind = PolicyKind::Cplant;
    config.wcl_enforcement = mode;
    const SimulationResult result = sim::simulate(trace, config);
    const metrics::PolicyReport report = metrics::evaluate(result);
    long long killed = 0;
    double lost = 0.0;
    for (const JobRecord& r : result.records) {
      if (!r.killed_at_wcl) continue;
      ++killed;
      lost += static_cast<double>(r.job.nodes) *
              static_cast<double>(r.job.runtime - r.executed_runtime()) / 3600.0;
    }
    table.begin_row()
        .add(label)
        .add_int(killed)
        .add(lost, 0)
        .add(report.standard.avg_turnaround, 0)
        .add_percent(report.fairness.percent_unfair)
        .add_percent(report.standard.loss_of_capacity);
  }
  std::cout << table;
  return 0;
}
