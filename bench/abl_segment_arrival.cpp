// Ablation: maximum-runtime segment semantics. The paper splits long jobs as
// trace preprocessing (all segments submitted at the original time); the
// physically faithful alternative chains each segment to its predecessor's
// completion (checkpoint/restart). DESIGN.md documents the choice.

#include <iostream>

#include "common/experiment_env.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);

  const Workload trace = bench::ablation_trace();
  bench::print_header(
      "Ablation: segment arrival semantics (72 h limit)",
      "paper-style preprocessing vs chained checkpoint/restart submission",
      "preprocessing lets sibling segments overlap (optimistic turnaround); chaining "
      "serializes them (later finishes, slightly different fairness mix)",
      trace, bench::ablation_scale());

  util::TextTable table({"mode", "policy", "records", "percent_unfair", "avg_miss_s",
                         "avg_turnaround_s", "loc"});
  const std::pair<sim::SegmentArrival, const char*> modes[] = {
      {sim::SegmentArrival::AtOriginalSubmit, "preprocess (paper)"},
      {sim::SegmentArrival::Chained, "chained"},
  };
  for (const auto& [mode, label] : modes) {
    for (const PaperPolicy policy : {PaperPolicy::Cplant24MaxAll, PaperPolicy::ConsMax}) {
      sim::EngineConfig config;
      config.policy = paper_policy(policy);
      config.segment_arrival = mode;
      const SimulationResult result = sim::simulate(trace, config);
      const metrics::PolicyReport report = metrics::evaluate(result);
      table.begin_row()
          .add(label)
          .add(report.policy)
          .add_int(static_cast<long long>(result.records.size()))
          .add_percent(report.fairness.percent_unfair)
          .add(report.fairness.avg_miss_all, 0)
          .add(report.standard.avg_turnaround, 0)
          .add_percent(report.standard.loss_of_capacity);
    }
  }
  std::cout << table;
  return 0;
}
