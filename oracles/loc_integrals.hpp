#pragma once
// Independent recomputation of the engine's online integrals from the
// finished records: one sweep over every submit/start/finish breakpoint,
// none of the engine's event-by-event accounting. tests/test_metrics_standard,
// test_integration and test_properties cross-check
// SimulationResult::loc_proc_seconds and busy_proc_seconds against it.
// Linked by tests and benches only, never by libpsched.

#include "core/record.hpp"

namespace psched::metrics {

/// The Eq. 4 numerator (proc-seconds of capacity left idle while jobs
/// waited).
double recompute_loc_integral(const SimulationResult& result);

/// The busy integral (utilization numerator).
double recompute_busy_integral(const SimulationResult& result);

}  // namespace psched::metrics
