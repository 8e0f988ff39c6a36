#pragma once
// Simulation outputs: per-job records, the per-arrival snapshots consumed by
// the fair-start-time engines (record ids, read against the records), and
// the whole-run result bundle. These are plain data, shared between the
// engine (producer) and the metrics layer (consumer).

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

/// A running job at some snapshot instant. Its shape and start are its
/// record's (SimulationResult::records[id]), so only the id is stored.
struct SnapshotRunning {
  JobId id = kInvalidJob;
};

/// A waiting job at some snapshot instant, read through its record like
/// SnapshotRunning.
struct SnapshotWaiting {
  JobId id = kInvalidJob;
};

/// System state captured at one job's arrival: the input of the paper's
/// hybrid FST metric (section 4.1). `running` holds the jobs running at the
/// arrival; `waiting` holds the jobs ahead of the arrival in FST order —
/// fairshare order, ascending (usage at the arrival, submit, id) — then the
/// arrival itself, last; the jobs behind it cannot affect its fair start and
/// are not stored. Both hold record ids only (4 bytes an entry): every
/// field the FST reads (nodes, runtime, WCL, start) is in the run's records.
struct ArrivalSnapshot {
  JobId id = kInvalidJob;
  Time at = kNoTime;
  std::vector<SnapshotRunning> running;
  std::vector<SnapshotWaiting> waiting;
};

/// Everything one policy run produces.
struct SimulationResult {
  std::string policy_name;
  NodeCount system_size = 0;

  /// Index == record id. With maximum-runtime limits there are more records
  /// than original jobs (one per segment).
  std::vector<JobRecord> records;

  /// Index == record id; empty when snapshot recording is disabled.
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
