#pragma once
// Workload transformations: truncating, rescaling and perturbing traces.
// Campaign specs apply them in a fixed order (head, rescale_load,
// estimate_factor) to build sensitivity studies without touching the
// generator.

#include <cstddef>

#include "core/job.hpp"

namespace psched::workload {

/// Multiply every inter-arrival gap by 1/load_factor: load_factor > 1
/// compresses the trace (more offered load per unit time), < 1 stretches it.
/// Runtimes and widths are untouched. load_factor must be > 0.
Workload rescale_load(const Workload& workload, double load_factor);

/// Replace every WCL with runtime * factor (factor >= 1): synthetic accuracy
/// studies (factor == 1 gives perfect estimates).
Workload with_estimate_factor(const Workload& workload, double factor);

/// First `count` jobs by submit order (a "head" of the trace).
Workload head(const Workload& workload, std::size_t count);

}  // namespace psched::workload
