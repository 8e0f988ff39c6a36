#include "common/experiment_env.hpp"

#include <cstdlib>
#include <iostream>

#include "scenario/campaign.hpp"
#include "util/parse.hpp"

namespace psched::bench {

namespace {
double read_env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const double parsed = std::strtod(value, nullptr);
  return parsed > 0.0 ? parsed : fallback;
}

std::uint64_t read_env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  return std::strtoull(value, nullptr, 10);
}

std::size_t g_jobs = 0;  // 0 = global pool size
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
  static const double scale = std::min(1.0, read_env_double("PSCHED_BENCH_SCALE", 1.0));
  return scale;
}

const Workload& ross_trace() {
  static const Workload trace = [] {
    scenario::WorkloadSpec spec;
    spec.scale = bench_scale();
    return scenario::build_workload(spec, read_env_u64("PSCHED_BENCH_SEED", 20021201ULL));
  }();
  return trace;
}

sim::ExperimentRunner& runner() {
  static sim::ExperimentRunner shared(ross_trace());
  return shared;
}

void print_header(const std::string& experiment_id, const std::string& what,
                  const std::string& paper_shape) {
  const Workload& trace = ross_trace();
  std::cout << "==================================================================\n"
            << experiment_id << ": " << what << '\n'
            << "# paper: " << paper_shape << '\n'
            << "# trace: " << trace.jobs.size() << " jobs, " << trace.system_size
            << " nodes, scale " << bench_scale() << ", synthetic CPlant/Ross\n"
            << "==================================================================\n";
}

std::vector<metrics::PolicyReport> run_policies(const std::vector<PolicyConfig>& policies) {
  // No concurrency level in the header: stdout must byte-diff clean across
  // --jobs values and hosts (the verification contract for the sweep).
  std::cout << "# sweeping " << policies.size() << " policies:";
  for (const PolicyConfig& policy : policies) std::cout << ' ' << policy.display_name();
  std::cout << '\n' << std::flush;

  const auto results = runner().run_all(policies, g_jobs);
  std::vector<metrics::PolicyReport> reports;
  reports.reserve(results.size());
  for (const sim::ExperimentResult* result : results) reports.push_back(result->report);
  return reports;
}

}  // namespace psched::bench
