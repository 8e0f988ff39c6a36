// Ablation: machine size. The paper never states Ross's usable node count;
// DESIGN.md picks 1,524. This sweep shows how the policy ranking depends on
// that substitution.

#include <iostream>

#include "common/experiment_env.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);

  bench::print_header(
      "Ablation: system size",
      "baseline vs cons.72max on machines from 1,100 to 2,048 nodes (same job stream)",
      "smaller machines are overloaded (misses explode); larger ones underloaded (every "
      "policy looks fair); the cons.72max advantage is stable across the range",
      bench::ablation_trace(), bench::ablation_scale());

  util::TextTable table({"nodes", "policy", "percent_unfair", "avg_miss_s", "avg_turnaround_s",
                         "utilization", "loc"});
  for (const NodeCount size : {1100, 1280, 1524, 2048}) {
    const Workload trace = bench::ablation_trace(size);
    for (const PaperPolicy policy : {PaperPolicy::Cplant24NomaxAll, PaperPolicy::ConsMax}) {
      sim::EngineConfig config;
      config.policy = paper_policy(policy);
      const SimulationResult result = sim::simulate(trace, config);
      const metrics::PolicyReport report = metrics::evaluate(result);
      table.begin_row()
          .add_int(size)
          .add(report.policy)
          .add_percent(report.fairness.percent_unfair)
          .add(report.fairness.avg_miss_all, 0)
          .add(report.standard.avg_turnaround, 0)
          .add_percent(report.standard.utilization)
          .add_percent(report.standard.loss_of_capacity);
    }
  }
  std::cout << table;
  return 0;
}
