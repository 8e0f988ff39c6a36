#pragma once
// Simulation outputs: per-job records, the published fairshare usage each
// arrival saw (the hybrid FST's queue key, metrics/fst.hpp), and the
// whole-run result bundle. These are plain data, shared between the engine
// (producer) and the metrics layer (consumer).

#include <cstdint>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/types.hpp"

namespace psched {

/// One scheduled job (possibly a runtime-limit segment) and its outcome.
struct JobRecord {
  Job job;
  Time start = kNoTime;
  Time finish = kNoTime;
  bool killed_at_wcl = false;  ///< finish truncated by WCL enforcement

  bool completed() const { return finish != kNoTime; }
  Time wait() const { return start - job.submit; }
  Time turnaround() const { return finish - job.submit; }
  Time executed_runtime() const { return finish - start; }
};

/// A running job at some arrival instant, as a record id.
struct SnapshotRunning {
  JobId id = kInvalidJob;
};

/// A waiting job at some arrival instant, as a record id.
struct SnapshotWaiting {
  JobId id = kInvalidJob;
};

/// System state at one job's arrival, the input of the paper's hybrid FST
/// (section 4.1): the running jobs, and the waiting jobs ahead of the
/// arrival in fairshare order, then the arrival, last. The engine does not
/// store these: metrics::hybrid_fairshare_fst derives each one from the
/// records and ArrivalUsage. The test-only oracle in
/// oracles/arrival_snapshots.hpp builds them from live engine state.
struct ArrivalSnapshot {
  JobId id = kInvalidJob;
  Time at = kNoTime;
  std::vector<SnapshotRunning> running;
  std::vector<SnapshotWaiting> waiting;
};

/// The published fairshare usage each arrival saw: the key of the hybrid
/// FST's queue order. Usage is published once per decay period, so one row
/// per fairshare epoch in which a job arrived covers every arrival; a row
/// has one column per user of the workload.
struct ArrivalUsage {
  std::vector<UserId> users;          ///< column -> user id, ascending
  std::vector<double> rows;           ///< row r, column c at r * users.size() + c
  std::vector<std::uint32_t> row_of;  ///< index == record id: the arrival's row
  /// Kills at the WCL run after the arrivals of their instant
  /// (WclEnforcement::KillIfNeeded), so such a job still runs at them.
  bool kills_after_arrivals = false;
};

/// Everything one policy run produces.
struct SimulationResult {
  std::string policy_name;
  NodeCount system_size = 0;

  /// Index == record id. With maximum-runtime limits there are more records
  /// than original jobs (one per segment).
  std::vector<JobRecord> records;

  /// Filled while EngineConfig::record_snapshots is set; empty otherwise.
  ArrivalUsage arrival_usage;

  /// Always empty from the engine; oracles/arrival_snapshots.hpp fills it.
  std::vector<ArrivalSnapshot> snapshots;

  /// segments_of_original[original job id] -> record ids, in segment order.
  std::vector<std::vector<JobId>> segments_of_original;
  std::size_t original_job_count = 0;

  Time first_start = kNoTime;   ///< MinStartTime of Eq. 3
  Time last_finish = kNoTime;   ///< MaxCompletionTime of Eq. 3
  double busy_proc_seconds = 0.0;  ///< integral of running processors
  /// Integral of min(queued demand, idle processors) — Eq. 4 numerator.
  double loc_proc_seconds = 0.0;

  /// Deterministic run-shape counts (events consumed, collect_starts
  /// batches), maintained by the engine for per-cell breakdowns. Not a
  /// metric: never serialized into a results store.
  std::uint64_t events_delivered = 0;
  std::uint64_t scheduler_invocations = 0;

  Time makespan() const {
    return (first_start == kNoTime || last_finish == kNoTime) ? 0 : last_finish - first_start;
  }
};

}  // namespace psched
