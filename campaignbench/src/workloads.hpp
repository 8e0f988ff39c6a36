#pragma once
// The benchmark's three campaign workloads. Each one pins its trace (seed,
// scale, transforms) so that golden results and exact work counts hold on any
// host; the benchmark seed becomes the campaign name and bootstrap seed, the
// spec fields that cannot change a cells.csv byte.
//
//   paper     Figure 14 at full scale: nine paper policies, Ross trace
//             (13,236 jobs, seed 20021201), hybrid-FST + standard metrics,
//             one sweep lane.
//   overload  cons.nomax + consdyn.nomax on the Ross trace at scale 2.0
//             (same span, twice the offered load), two sweep lanes.
//   archive   a 50,299-job trace (Ross, scale 3.8, seed 42) exported to SWF
//             and replayed through the streaming reader with
//             rescale_load = 0.26: cplant24.nomax.all with policy-knowledge
//             and hybrid FST, one lane on the 4-thread pool.
//
// Smoke versions shrink each trace for the self-test; their results are not
// pinned.

#include <cstdint>
#include <string>

#include "scenario/spec.hpp"
#include "workload/generator.hpp"

namespace campaignbench {

struct BenchWorkload {
  std::string name;
  std::size_t lanes = 1;
  /// The campaign, complete. For an SWF workload, workload.swf_file names
  /// the export that setup writes.
  psched::scenario::ScenarioSpec spec;
  /// SWF workloads: the generator config of the trace that is exported.
  bool from_swf = false;
  psched::workload::GeneratorConfig generator;
};

/// Throws std::invalid_argument for an unknown name.
BenchWorkload make_workload(const std::string& name, std::uint64_t bench_seed, bool smoke,
                            const std::string& work_dir);

/// The generator config scenario::build_workload uses for a Ross spec
/// (including its span scaling below scale 1).
psched::workload::GeneratorConfig ross_generator(std::uint64_t seed, double scale);

}  // namespace campaignbench
