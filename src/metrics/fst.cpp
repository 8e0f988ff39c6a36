#include "metrics/fst.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/list_scheduler.hpp"
#include "core/profile.hpp"
#include "util/thread_pool.hpp"

namespace psched::metrics {

namespace {

/// Reusable per-thread state for the per-job FST loop. One simulation can
/// have thousands of snapshots; reusing the list scheduler keeps the loop
/// allocation-free after warm-up.
struct FstScratch {
  std::optional<ListScheduler> list;

  ListScheduler& list_for(NodeCount system_size, Time origin) {
    if (!list || list->node_count() != system_size)
      list.emplace(system_size, origin);
    else
      list->reset(origin);
    return *list;
  }
};

/// The record of a snapshot entry; throws std::invalid_argument when `id`
/// names none.
const JobRecord& snapshot_record(const std::vector<JobRecord>& records, JobId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= records.size())
    throw std::invalid_argument("snapshot_fst: snapshot names job " + std::to_string(id) +
                                ", which has no record");
  return records[static_cast<std::size_t>(id)];
}

/// FST of one snapshot: list-schedule the waiting jobs on top of the running
/// jobs in stored order (the engine stores them in fairshare order, the
/// arrival last); return the target job's start. Shapes come from the
/// records: a running job's perfect remaining time is start + runtime - at
/// (the engine's actual end, runtime-based even when it is killed at its
/// WCL), its estimate max(1, start + wcl - at) (the engine's clamp).
Time snapshot_fst(const ArrivalSnapshot& snapshot, const std::vector<JobRecord>& records,
                  NodeCount system_size, FstKnowledge knowledge, FstScratch& scratch) {
  const bool perfect = knowledge == FstKnowledge::Perfect;
  ListScheduler& list = scratch.list_for(system_size, snapshot.at);
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

}  // namespace

void aggregate_fst(const SimulationResult& result, const FstOptions& options, FstResult& fst) {
  const std::size_t n = result.records.size();
  fst.miss.assign(n, 0);
  std::size_t unfair = 0;
  std::size_t unfair_any = 0;
  double unfair_load = 0.0;
  double total_load = 0.0;
  double miss_total = 0.0;
  double miss_unfair_total = 0.0;
  std::array<double, kWidthCategories> miss_by_width{};

  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& record = result.records[i];
    const Time miss = std::max<Time>(0, record.start - fst.fair_start[i]);
    fst.miss[i] = miss;
    miss_total += static_cast<double>(miss);
    fst.max_miss = std::max(fst.max_miss, static_cast<double>(miss));
    total_load += record.job.proc_seconds();

    const auto w = static_cast<std::size_t>(width_category(record.job.nodes));
    ++fst.jobs_by_width[w];
    miss_by_width[w] += static_cast<double>(miss);
    if (miss > 1) ++unfair_any;
    if (miss > options.tolerance) {
      ++unfair;
      ++fst.unfair_by_width[w];
      unfair_load += record.job.proc_seconds();
      miss_unfair_total += static_cast<double>(miss);
    }
  }

  if (n > 0) {
    fst.percent_unfair = static_cast<double>(unfair) / static_cast<double>(n);
    fst.percent_unfair_any = static_cast<double>(unfair_any) / static_cast<double>(n);
    fst.percent_unfair_load = total_load > 0.0 ? unfair_load / total_load : 0.0;
    fst.avg_miss_all = miss_total / static_cast<double>(n);
    fst.avg_miss_unfair = unfair > 0 ? miss_unfair_total / static_cast<double>(unfair) : 0.0;
  }
  for (std::size_t w = 0; w < kWidthCategories; ++w)
    if (fst.jobs_by_width[w] > 0)
      fst.avg_miss_by_width[w] = miss_by_width[w] / static_cast<double>(fst.jobs_by_width[w]);
}

FstResult hybrid_fairshare_fst(const SimulationResult& result, const FstOptions& options) {
  const std::size_t n = result.records.size();
  if (result.snapshots.size() != n)
    throw std::invalid_argument(
        "hybrid_fairshare_fst: result has no arrival snapshots (run the engine with "
        "record_snapshots = true)");

  FstResult fst;
  fst.fair_start.assign(n, kNoTime);

  const auto compute_one = [&](std::size_t i) {
    thread_local FstScratch scratch;
    fst.fair_start[i] =
        snapshot_fst(result.snapshots[i], result.records, result.system_size, options.knowledge,
                     scratch);
  };
  if (options.parallel)
    util::parallel_for(n, compute_one, /*min_chunk=*/16);
  else
    for (std::size_t i = 0; i < n; ++i) compute_one(i);

  aggregate_fst(result, options, fst);
  return fst;
}

FstResult cons_p_fst(const SimulationResult& result, const FstOptions& options) {
  const std::size_t n = result.records.size();
  FstResult fst;
  fst.fair_start.assign(n, kNoTime);
  if (n == 0) {
    aggregate_fst(result, options, fst);
    return fst;
  }

  // Perfect estimates make conservative backfilling one-shot: each arriving
  // job takes the earliest hole and never moves (nobody ever finishes early,
  // so no compression is possible). Insert records in submit order (FCFS).
  std::vector<const JobRecord*> order;
  order.reserve(n);
  for (const JobRecord& r : result.records) order.push_back(&r);
  std::sort(order.begin(), order.end(), [](const JobRecord* a, const JobRecord* b) {
    if (a->job.submit != b->job.submit) return a->job.submit < b->job.submit;
    return a->job.id < b->job.id;
  });

  Profile profile(result.system_size, order.front()->job.submit);
  for (const JobRecord* r : order) {
    fst.fair_start[static_cast<std::size_t>(r->job.id)] =
        profile.reserve(r->job.submit, r->job.runtime, r->job.nodes);
  }

  aggregate_fst(result, options, fst);
  return fst;
}

}  // namespace psched::metrics
