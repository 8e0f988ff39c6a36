#pragma once
// Shared environment for the table/figure experiment binaries: the synthetic
// CPlant/Ross trace, a shared experiment runner, and uniform report headers.
//
// Command-line flags (parsed by init(), shared by every binary):
//   --jobs N   run up to N policy simulations concurrently (default: the
//              global pool size; 1 = serial). Results are byte-identical to
//              a serial sweep regardless of N.
//   --help     print the flags and environment knobs, then exit
//
// Environment knobs (all optional):
//   PSCHED_BENCH_SCALE  trace count scale in (0, 1]; default 1.0 (full trace)
//   PSCHED_BENCH_SEED   generator seed; default 20021201
//   PSCHED_THREADS      global thread-pool size; default hardware concurrency
// Unset or empty means the default; any other value that is not a whole
// number in range exits 2 naming the variable.

#include <cstddef>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "sim/experiment.hpp"
#include "workload/generator.hpp"

namespace psched::bench {

/// Parse the shared experiment flags (--jobs N, --help). Call first thing in
/// main; exits on --help or on an unknown/malformed option.
void init(int argc, char** argv);

/// The trace every experiment binary runs on (constructed once per process).
const Workload& ross_trace();

/// Shared runner over ross_trace() with default engine settings.
const sim::ExperimentRunner& runner();

/// The trace scale in effect (for report headers).
double bench_scale();

/// The --jobs value (0 = global pool size), for binaries that sweep through
/// runner().run_all themselves.
std::size_t jobs();

/// Standard banner: experiment id, what the paper shows, what to expect.
void print_header(const std::string& experiment_id, const std::string& what,
                  const std::string& paper_shape);

/// Run the given policies through the shared runner — up to jobs() of them
/// concurrently — and return their reports in order.
std::vector<metrics::PolicyReport> run_policies(const std::vector<PolicyConfig>& policies);

}  // namespace psched::bench
