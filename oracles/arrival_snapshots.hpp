#pragma once
// The stored-snapshot hybrid FST, preserved as the oracle for
// metrics::hybrid_fairshare_fst, which derives each arrival's state from the
// final records instead. Here the state is read from the live engine at
// every arrival hook — running(), the delivered jobs not yet started, and
// the fairshare order of the seed's per-event sort
// (reference::sorted_by_priority) — stored as an ArrivalSnapshot, and each
// snapshot is list-scheduled on its own. Linked by tests and benches only,
// never by libpsched.

#include <vector>

#include "metrics/fst.hpp"
#include "sim/engine.hpp"

namespace psched::reference {

/// Run `config` over `workload` and fill result.snapshots (index == record
/// id) from the engine at each arrival hook: the running jobs, then the
/// arrived, unstarted jobs plus the arrival in fairshare order, cut after
/// the arrival. Everything else is the engine's own result.
SimulationResult simulate_with_snapshots(const Workload& workload, const sim::EngineConfig& config);

/// FST of one snapshot: list-schedule the running jobs (remaining time
/// start + runtime - at under Perfect knowledge, max(1, start + wcl - at)
/// under Estimates), then the waiting jobs in stored order; return the
/// arrival's start. Shapes and starts are read from `records`; an id with no
/// record throws std::invalid_argument.
Time snapshot_fst(const ArrivalSnapshot& snapshot, const std::vector<JobRecord>& records,
                  NodeCount system_size, metrics::FstKnowledge knowledge);

/// The hybrid FST over result.snapshots (one per record, else
/// std::invalid_argument), aggregated as metrics::hybrid_fairshare_fst
/// aggregates.
metrics::FstResult snapshot_hybrid_fst(const SimulationResult& result,
                                       const metrics::FstOptions& options = {});

}  // namespace psched::reference
