#pragma once
// Named scalar metrics: the vocabulary scenario specs use to select which
// quantities a campaign records and aggregates. Every name maps to one scalar
// of a PolicyReport, so a campaign cell reduces to a (name -> double) row
// that the CSV/JSON results store and the bootstrap aggregator consume.
// Besides the fixed catalog there are two per-width families, avg_miss_w<k>
// and avg_turnaround_w<k>, one name per width category k of
// core/categories.hpp (k = 0..10, no leading zeros).

#include <string>

#include "metrics/report.hpp"

namespace psched::metrics {

/// Is `name` a selectable metric?
bool is_metric_name(const std::string& name);

/// The value of metric `name` in `report`. Throws std::invalid_argument for
/// an unknown name (spec validation rejects those earlier, with a line
/// number).
double metric_value(const PolicyReport& report, const std::string& name);

}  // namespace psched::metrics
