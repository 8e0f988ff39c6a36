#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

namespace campaignbench {

psched::workload::GeneratorConfig ross_generator(std::uint64_t seed, double scale) {
  psched::workload::GeneratorConfig generator;
  generator.seed = seed;
  generator.count_scale = scale;
  if (scale < 1.0)
    generator.span = std::max<psched::Time>(
        psched::weeks(4),
        static_cast<psched::Time>(static_cast<double>(psched::workload::kRossTraceSpan) * scale));
  return generator;
}

BenchWorkload make_workload(const std::string& name, std::uint64_t bench_seed, bool smoke,
                            const std::string& work_dir) {
  using psched::scenario::WorkloadSpec;
  BenchWorkload w;
  w.name = name;
  psched::scenario::ScenarioSpec& spec = w.spec;
  spec.name = name + "-" + std::to_string(bench_seed);
  spec.bootstrap_seed = bench_seed;
  spec.workload.source = WorkloadSpec::Source::Ross;
  spec.workload.seed = 20021201;
  const std::vector<std::string> hybrid_and_standard = {
      "percent_unfair", "percent_unfair_any", "avg_miss_all", "avg_miss_unfair",
      "max_miss",       "avg_wait",           "avg_turnaround", "utilization"};

  if (name == "paper") {
    w.lanes = 1;
    spec.workload.scale = smoke ? 0.05 : 1.0;
    spec.metrics = hybrid_and_standard;
    spec.policy_names = {"cplant24.nomax.all", "cplant24.nomax.fair", "cplant72.nomax.all",
                         "cplant24.72max.all", "cplant72.72max.fair", "cons.nomax",
                         "consdyn.nomax",      "cons.72max",          "consdyn.72max"};
  } else if (name == "overload") {
    w.lanes = 2;
    spec.workload.scale = smoke ? 0.1 : 2.0;
    spec.metrics = hybrid_and_standard;
    spec.policy_names = {"cons.nomax", "consdyn.nomax"};
  } else if (name == "archive") {
    w.lanes = 1;
    w.from_swf = true;
    w.generator = ross_generator(42, smoke ? 0.05 : 3.8);
    spec.workload.source = WorkloadSpec::Source::Swf;
    spec.workload.swf_file = work_dir + "/archive.swf";
    spec.workload.rescale_load = 0.26;
    spec.metrics = {"policy_percent_unfair", "policy_avg_miss_all", "percent_unfair",
                    "avg_miss_all", "avg_wait", "utilization"};
    spec.policy_names = {"cplant24.nomax.all"};
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected paper, overload or archive)");
  }
  return w;
}

}  // namespace campaignbench
