#include "common/experiment_env.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "scenario/campaign.hpp"
#include "util/parse.hpp"

namespace psched::bench {

namespace {
std::size_t g_jobs = 0;  // 0 = global pool size

std::uint64_t bench_seed() {
  static const std::uint64_t seed = util::env_number(
      "PSCHED_BENCH_SEED", std::uint64_t{20021201}, "an unsigned integer", std::uint64_t{0});
  return seed;
}
}  // namespace

void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << (argc > 0 ? argv[0] : "experiment")
                << " — paper figure/table experiment\n"
                   "  --jobs N   concurrent policy simulations (default: pool size; 1 = serial)\n"
                   "  env: PSCHED_BENCH_SCALE, PSCHED_BENCH_SEED, PSCHED_THREADS\n";
      std::exit(0);
    }
    if (arg == "--jobs") {
      if (i + 1 >= argc) {
        std::cerr << "experiment: missing value for --jobs\n";
        std::exit(2);
      }
      const char* text = argv[++i];
      const auto parsed = util::parse_number<std::size_t>(text, 1);
      if (!parsed) {
        std::cerr << "experiment: --jobs wants an integer >= 1, got '" << text << "'\n";
        std::exit(2);
      }
      g_jobs = *parsed;
      continue;
    }
    std::cerr << "experiment: unknown option '" << arg << "' (try --help)\n";
    std::exit(2);
  }
}

double bench_scale() {
  static const double scale = util::env_number("PSCHED_BENCH_SCALE", 1.0, "a number in (0, 1]",
                                                std::numeric_limits<double>::min(), 1.0);
  return scale;
}

std::size_t jobs() { return g_jobs; }

const Workload& ross_trace() {
  static const Workload trace = [] {
    scenario::WorkloadSpec spec;
    spec.scale = bench_scale();
    return scenario::build_workload(spec, bench_seed());
  }();
  return trace;
}

Workload ablation_trace(NodeCount system_size) {
  scenario::WorkloadSpec spec;
  spec.scale = ablation_scale();
  spec.system_size = system_size;
  return scenario::build_workload(spec, bench_seed());
}

double ablation_scale() { return std::min(0.5, bench_scale()); }

const sim::ExperimentRunner& runner() {
  static const sim::ExperimentRunner shared(ross_trace());
  return shared;
}

void print_header(const std::string& experiment_id, const std::string& what,
                  const std::string& paper_shape, const Workload& trace, double scale) {
  std::cout << "==================================================================\n"
            << experiment_id << ": " << what << '\n'
            << "# paper: " << paper_shape << '\n'
            << "# trace: " << trace.jobs.size() << " jobs, " << trace.system_size
            << " nodes, scale " << scale << ", synthetic CPlant/Ross\n"
            << "==================================================================\n";
}

}  // namespace psched::bench
