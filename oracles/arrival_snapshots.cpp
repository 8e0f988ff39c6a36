#include "oracles/arrival_snapshots.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/list_scheduler.hpp"
#include "oracles/priority_order.hpp"
#include "util/thread_pool.hpp"

namespace psched::reference {

namespace {

const JobRecord& snapshot_record(const std::vector<JobRecord>& records, JobId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= records.size())
    throw std::invalid_argument("snapshot_fst: snapshot names job " + std::to_string(id) +
                                ", which has no record");
  return records[static_cast<std::size_t>(id)];
}

}  // namespace

SimulationResult simulate_with_snapshots(const Workload& workload,
                                         const sim::EngineConfig& config) {
  sim::SimulationEngine engine(workload, config);
  std::vector<ArrivalSnapshot> snapshots;
  std::vector<JobId> arrived;  // delivered, not started when last looked at
  SimulationResult result = engine.run_with_arrival_hook([&](JobId id) {
    std::erase_if(arrived, [&](JobId j) { return engine.recorded_start(j) != kNoTime; });
    ArrivalSnapshot snapshot;
    snapshot.id = id;
    snapshot.at = engine.now();
    for (const RunningView& r : engine.running()) snapshot.running.push_back({r.id});
    std::vector<JobId> waiting = arrived;
    waiting.push_back(id);
    waiting = sorted_by_priority(engine, std::move(waiting), PriorityKind::Fairshare);
    for (const JobId w : waiting) {
      snapshot.waiting.push_back({w});
      if (w == id) break;
    }
    if (snapshots.size() <= static_cast<std::size_t>(id))
      snapshots.resize(static_cast<std::size_t>(id) + 1);
    snapshots[static_cast<std::size_t>(id)] = std::move(snapshot);
    arrived.push_back(id);
  });
  snapshots.resize(result.records.size());
  result.snapshots = std::move(snapshots);
  return result;
}

Time snapshot_fst(const ArrivalSnapshot& snapshot, const std::vector<JobRecord>& records,
                  NodeCount system_size, metrics::FstKnowledge knowledge) {
  const bool perfect = knowledge == metrics::FstKnowledge::Perfect;
  ListScheduler list(system_size, snapshot.at);
  for (const SnapshotRunning& r : snapshot.running) {
    const JobRecord& record = snapshot_record(records, r.id);
    const Time remaining = perfect ? record.start + record.job.runtime - snapshot.at
                                   : std::max<Time>(1, record.start + record.job.wcl - snapshot.at);
    list.occupy(record.job.nodes, snapshot.at + std::max<Time>(remaining, 0));
  }
  for (const SnapshotWaiting& w : snapshot.waiting) {
    const Job& job = snapshot_record(records, w.id).job;
    const Time start = list.schedule(job.nodes, perfect ? job.runtime : job.wcl, snapshot.at);
    if (w.id == snapshot.id) return start;
  }
  throw std::logic_error("snapshot_fst: target job missing from its own snapshot");
}

metrics::FstResult snapshot_hybrid_fst(const SimulationResult& result,
                                       const metrics::FstOptions& options) {
  const std::size_t n = result.records.size();
  if (result.snapshots.size() != n)
    throw std::invalid_argument("snapshot_hybrid_fst: result has no arrival snapshots");
  metrics::FstResult fst;
  fst.fair_start.assign(n, kNoTime);
  const auto compute_one = [&](std::size_t i) {
    fst.fair_start[i] =
        snapshot_fst(result.snapshots[i], result.records, result.system_size, options.knowledge);
  };
  if (options.parallel)
    util::parallel_for(n, compute_one, /*min_chunk=*/16);
  else
    for (std::size_t i = 0; i < n; ++i) compute_one(i);
  metrics::aggregate_fst(result, options, fst);
  return fst;
}

}  // namespace psched::reference
