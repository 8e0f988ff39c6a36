#pragma once
// Shared environment for the experiment binaries that no campaign spec can
// express (the workload characterization of Figures 3-7 and Tables 1-2, and
// four ablations): the synthetic CPlant/Ross trace, a shared experiment
// runner, and uniform report headers. The policy figures and the knob
// ablations are campaign specs in bench/figures/.
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

#include "metrics/report.hpp"
#include "sim/experiment.hpp"
#include "workload/generator.hpp"

namespace psched::bench {

/// Parse the shared experiment flags (--jobs N, --help). Call first thing in
/// main; exits on --help or on an unknown/malformed option.
void init(int argc, char** argv);

/// The trace every experiment binary runs on (constructed once per process).
const Workload& ross_trace();

/// The half-scale trace of the ablation binaries (scale ablation_scale(),
/// same seed), built like the scale-0.5 workload of
/// bench/figures/ablation_*.spec, so a baseline row equals that spec's
/// cell. `system_size` 0 keeps the generator's machine.
Workload ablation_trace(NodeCount system_size = 0);

/// The count scale of ablation_trace(): min(0.5, bench_scale()).
double ablation_scale();

/// Shared runner over ross_trace() with default engine settings.
const sim::ExperimentRunner& runner();

/// The count scale of ross_trace(): PSCHED_BENCH_SCALE, default 1.0.
double bench_scale();

/// The --jobs value (0 = global pool size), for binaries that sweep through
/// runner().run_all.
std::size_t jobs();

/// Standard banner: experiment id, what the paper shows, what to expect, and
/// the trace the rows are computed on, generated at count scale `scale`.
void print_header(const std::string& experiment_id, const std::string& what,
                  const std::string& paper_shape, const Workload& trace, double scale);

}  // namespace psched::bench
