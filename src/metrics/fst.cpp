#include "metrics/fst.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/list_scheduler.hpp"
#include "core/profile.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace psched::metrics {

namespace {

/// Reusable per-thread list scheduler for the per-arrival loop. One
/// simulation has thousands of arrivals; reusing it keeps the loop
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

/// What every chunk of the arrival sweep reads, computed once per run.
struct ArrivalIndex {
  std::vector<JobId> order;           ///< record ids in arrival order: (submit, id)
  std::vector<JobId> by_start;        ///< record ids by (start, id)
  std::vector<std::uint32_t> column;  ///< per record: its user's ArrivalUsage column
};

const JobRecord& record_at(const SimulationResult& result, JobId id) {
  return result.records[static_cast<std::size_t>(id)];
}

ArrivalIndex index_arrivals(const SimulationResult& result) {
  const std::size_t n = result.records.size();
  const ArrivalUsage& usage = result.arrival_usage;
  if (usage.row_of.size() != n)
    throw std::invalid_argument(
        "hybrid_fairshare_fst: result has no arrival usage (run the engine with "
        "record_snapshots = true)");
  ArrivalIndex index;
  if (n == 0) return index;
  if (usage.users.empty() || usage.rows.size() % usage.users.size() != 0)
    throw std::invalid_argument("hybrid_fairshare_fst: malformed arrival usage rows");
  const std::size_t rows = usage.rows.size() / usage.users.size();

  index.order.resize(n);
  index.column.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    index.order[i] = static_cast<JobId>(i);
    const UserId user = result.records[i].job.user;
    const auto it = std::lower_bound(usage.users.begin(), usage.users.end(), user);
    if (it == usage.users.end() || *it != user || usage.row_of[i] >= rows)
      throw std::invalid_argument("hybrid_fairshare_fst: record " + std::to_string(i) +
                                  " has no arrival usage");
    index.column[i] = static_cast<std::uint32_t>(it - usage.users.begin());
  }
  index.by_start = index.order;
  std::sort(index.order.begin(), index.order.end(), [&](JobId a, JobId b) {
    const Time x = record_at(result, a).job.submit;
    const Time y = record_at(result, b).job.submit;
    return x != y ? x < y : a < b;
  });
  std::sort(index.by_start.begin(), index.by_start.end(), [&](JobId a, JobId b) {
    const Time x = record_at(result, a).start;
    const Time y = record_at(result, b).start;
    return x != y ? x < y : a < b;
  });
  return index;
}

/// The job whose KillIfNeeded kill at `arriving`'s submit chained it in
/// (kInvalidJob when none did). Those kills run after the instant's other
/// arrivals, in id order, and the chained segment arrives right after its
/// predecessor's: jobs killed at that instant with a higher id still run.
JobId killed_before(const SimulationResult& result, const Job& arriving) {
  if (!result.arrival_usage.kills_after_arrivals || arriving.segment == 0) return kInvalidJob;
  const JobId previous = result.segments_of_original.at(static_cast<std::size_t>(arriving.parent))
                             .at(static_cast<std::size_t>(arriving.segment - 1));
  const JobRecord& before = record_at(result, previous);
  return before.killed_at_wcl && before.finish == arriving.submit ? previous : kInvalidJob;
}

/// One entry of the swept queue, in FST order: (usage, submit, id).
struct QueueEntry {
  double usage;
  Time submit;
  Time start;  ///< the job leaves the queue at the first arrival after it
  JobId id;
  bool operator<(const QueueEntry& other) const {
    if (usage != other.usage) return usage < other.usage;
    if (submit != other.submit) return submit < other.submit;
    return id < other.id;
  }
};

/// Fair starts of the arrivals at positions [first, last) of index.order.
/// The state at each arrival is rebuilt from the records:
///  - running: start < t, and finish > t, or finish == t for a job a
///    KillIfNeeded check kills at t after the arrival (those checks run
///    after the instant's arrivals, in id order);
///  - waiting: the arrivals up to and including this one (in arrival order)
///    that start at t or later (starts follow the instant's events), keyed
///    by their users' usage published at t; the FST list-schedules the
///    entries keyed up to the arrival's own key.
/// Returns the number of queue entries list-scheduled.
std::uint64_t sweep_arrivals(const SimulationResult& result, const ArrivalIndex& index,
                             FstKnowledge knowledge, std::size_t first, std::size_t last,
                             std::vector<Time>& fair_start) {
  const bool perfect = knowledge == FstKnowledge::Perfect;
  const bool kills_after = result.arrival_usage.kills_after_arrivals;
  const std::vector<double>& rows = result.arrival_usage.rows;
  const std::size_t width = result.arrival_usage.users.size();
  const auto usage_of = [&](std::size_t row, JobId id) {
    return rows[row * width + index.column[static_cast<std::size_t>(id)]];
  };

  // The chunk's starting sets, from the records.
  const Time t0 = record_at(result, index.order[first]).job.submit;
  std::size_t row = result.arrival_usage.row_of[static_cast<std::size_t>(index.order[first])];
  std::vector<JobId> running;
  std::size_t next_start = 0;  // by_start[0, next_start) started before the current arrival
  for (; next_start < index.by_start.size(); ++next_start) {
    const JobRecord& record = record_at(result, index.by_start[next_start]);
    if (record.start >= t0) break;
    if (record.finish >= t0) running.push_back(index.by_start[next_start]);
  }
  std::vector<QueueEntry> queue;
  for (std::size_t k = 0; k < first; ++k) {
    const JobRecord& record = record_at(result, index.order[k]);
    if (record.start >= t0)
      queue.push_back({usage_of(row, record.job.id), record.job.submit, record.start,
                       record.job.id});
  }
  std::sort(queue.begin(), queue.end());

  thread_local FstScratch scratch;
  std::uint64_t entries = 0;
  for (std::size_t k = first; k < last; ++k) {
    const JobId id = index.order[k];
    const JobRecord& arriving = record_at(result, id);
    const Time t = arriving.job.submit;

    // Jobs that started since the previous arrival leave the queue.
    const std::size_t started_from = next_start;
    for (; next_start < index.by_start.size(); ++next_start) {
      const JobId started = index.by_start[next_start];
      if (record_at(result, started).start >= t) break;
      running.push_back(started);
    }
    if (next_start != started_from)
      std::erase_if(queue, [t](const QueueEntry& e) { return e.start < t; });

    const std::size_t arrival_row = result.arrival_usage.row_of[static_cast<std::size_t>(id)];
    if (arrival_row != row) {
      row = arrival_row;
      for (QueueEntry& e : queue) e.usage = usage_of(row, e.id);
      std::sort(queue.begin(), queue.end());
    }
    const QueueEntry key{usage_of(row, id), t, arriving.start, id};
    const auto position = queue.insert(std::upper_bound(queue.begin(), queue.end(), key), key);

    // Seed the running jobs; a job that stopped running never runs again at
    // a later arrival, so it leaves the set.
    ListScheduler& list = scratch.list_for(result.system_size, t);
    const JobId killed_first = killed_before(result, arriving.job);
    std::erase_if(running, [&](JobId r) {
      const JobRecord& record = record_at(result, r);
      const bool runs = record.finish > t || (record.finish == t && kills_after &&
                                              record.killed_at_wcl && r > killed_first);
      if (!runs) return true;
      const Time remaining = perfect ? record.start + record.job.runtime - t
                                     : std::max<Time>(1, record.start + record.job.wcl - t);
      list.occupy(record.job.nodes, t + std::max<Time>(remaining, 0));
      return false;
    });

    Time start = kNoTime;
    for (auto it = queue.begin(); it <= position; ++it) {
      const Job& job = record_at(result, it->id).job;
      start = list.schedule(job.nodes, perfect ? job.runtime : job.wcl, t);
    }
    fair_start[static_cast<std::size_t>(id)] = start;
    entries += static_cast<std::uint64_t>(position - queue.begin()) + 1;
  }
  return entries;
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
  const ArrivalIndex index = index_arrivals(result);
  const std::size_t n = result.records.size();
  FstResult fst;
  fst.fair_start.assign(n, kNoTime);

  // Each chunk rebuilds its starting state in O(n), so chunks stay few:
  // one pool task each.
  const std::size_t chunks =
      options.parallel ? std::min<std::size_t>(4 * util::global_pool().size(), (n + 63) / 64)
                       : std::min<std::size_t>(n, 1);
  std::vector<std::uint64_t> entries(chunks);
  const auto sweep_chunk = [&](std::size_t c) {
    entries[c] = sweep_arrivals(result, index, options.knowledge, n * c / chunks,
                                n * (c + 1) / chunks, fst.fair_start);
  };
  util::parallel_for(chunks, sweep_chunk);
  std::uint64_t total = 0;
  for (const std::uint64_t count : entries) total += count;
  obs::count(obs::Counter::kFstPrefixEntries, total);

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
