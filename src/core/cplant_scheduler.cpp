#include "core/cplant_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace psched {

namespace {
/// How often to re-test barred jobs for entry when no other event fires.
constexpr Time kHeavyRecheckInterval = hours(1);

/// Index order: ascending (est_end, id).
bool ends_before(const RunningView& a, const RunningView& b) {
  return a.est_end != b.est_end ? a.est_end < b.est_end : a.id < b.id;
}
}  // namespace

CplantScheduler::CplantScheduler(CplantConfig config)
    : config_(config), queue_(config.priority) {}

std::string CplantScheduler::name() const {
  if (!starvation_enabled()) return "noguarantee";
  std::string n = "cplant" + std::to_string(config_.starvation_delay / hours(1));
  n += config_.bar_heavy_users ? ".fair" : ".all";
  return n;
}

void CplantScheduler::on_submit(JobId id) {
  const WaitQueue::Entry& job = queue_[queue_.push(ctx(), id)];
  queue_min_nodes_ = std::min(queue_min_nodes_, job.nodes);
  eligible_from_ = std::min(eligible_from_, job.submit + config_.starvation_delay);
}

void CplantScheduler::on_complete(JobId id) {
  const auto it = std::find_if(running_.begin(), running_.end(),
                               [id](const RunningView& r) { return r.id == id; });
  if (it == running_.end())
    throw std::logic_error("CplantScheduler: job " + std::to_string(id) +
                           " completed but was never started by this scheduler");
  running_nodes_ -= it->nodes;
  running_.erase(it);
}

void CplantScheduler::launch(const WaitQueue::Entry& job, std::vector<JobId>& starts) {
  starts.push_back(job.id);
  const RunningView run{job.id, job.nodes, ctx().now(), ctx().now() + job.wcl};
  running_.insert(std::upper_bound(running_.begin(), running_.end(), run, ends_before), run);
  running_nodes_ += job.nodes;
}

std::uint64_t CplantScheduler::promote_starving_jobs() {
  const Time now = ctx().now();
  if (!starvation_enabled() || now < eligible_from_) return 0;
  const std::uint64_t scanned = queue_.size();
  // Heavy users: usage above factor x the mean positive usage, read once
  // per event (usage only moves at a publish).
  const double mean = config_.bar_heavy_users ? ctx().mean_positive_usage() : 0.0;
  const bool bar = mean > 0.0;
  const double heavy_above = config_.heavy_user_factor * mean;
  const std::size_t promoted = starve_.size();
  queue_min_nodes_ = kWiderThanAny;
  eligible_from_ = kNever;
  queue_.retain([&](const WaitQueue::Entry& job) {
    if (now - job.submit < config_.starvation_delay ||
        (bar && ctx().user_usage(job.user) > heavy_above)) {
      queue_min_nodes_ = std::min(queue_min_nodes_, job.nodes);
      eligible_from_ = std::min(eligible_from_, job.submit + config_.starvation_delay);
      return true;
    }
    starve_.push_back(job);
    starve_min_nodes_ = std::min(starve_min_nodes_, job.nodes);
    return false;
  });
  // Each promotion enters the starvation queue FCFS by submission.
  std::sort(starve_.begin() + static_cast<std::ptrdiff_t>(promoted), starve_.end(),
            [](const WaitQueue::Entry& a, const WaitQueue::Entry& b) {
              return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
            });
  return scanned;
}

Time CplantScheduler::reserve_head(NodeCount nodes, NodeCount& spare) const {
  if (nodes > ctx().total_nodes())
    throw std::invalid_argument("CplantScheduler: starvation head wider than the machine");
  const Time now = ctx().now();
  NodeCount free = ctx().total_nodes() - running_nodes_;
  // Two sorted runs of assumed ends (see the header): the over-runners
  // [begin, split) read backwards, and the rest [split, end) read forwards.
  // Every end lies after now, and all of them together free the whole
  // machine, so the walk stops.
  const auto split = std::partition_point(running_.begin(), running_.end(),
                                          [now](const RunningView& r) { return r.est_end <= now; });
  auto over = split;
  auto ahead = split;
  // The earlier of the two runs' next ends (kNever once both are read).
  const auto next_at = [&] {
    const Time over_at = over == running_.begin() ? kNever : assumed_running_end(over[-1], now);
    return ahead == running_.end() ? over_at : std::min(over_at, ahead->est_end);
  };
  const auto pop = [&] {
    const Time at = next_at();
    free += ahead != running_.end() && ahead->est_end == at ? (ahead++)->nodes : (--over)->nodes;
    return at;
  };
  Time at = now;
  while (free < nodes) at = pop();
  // Jobs ending at `at` have freed their nodes by then as well.
  while (next_at() == at) pop();
  spare = free - nodes;
  return at;
}

void CplantScheduler::collect_starts(std::vector<JobId>& starts) {
  wakeup_.reset();
  refresh_queue(queue_);
  std::uint64_t scanned = promote_starving_jobs();

  const Time now = ctx().now();
  if (running_.size() != ctx().running().size())
    throw std::logic_error("CplantScheduler: " + std::to_string(ctx().running().size()) +
                           " running jobs, but it started " + std::to_string(running_.size()) +
                           " that have not completed");
  const NodeCount free_now = ctx().total_nodes() - running_nodes_;
  if (free_now < 0)
    throw std::logic_error("CplantScheduler: running jobs exceed the machine at t=" +
                           std::to_string(now));
  NodeCount room = std::min(ctx().free_nodes(), free_now);

  // Starvation queue first, FCFS: jobs start while they fit. The first one
  // that does not takes the single internal reservation and stays, and the
  // jobs behind it may still start if they respect it.
  std::size_t next = 0;
  for (; next < starve_.size() && starve_[next].nodes <= room; ++next) {
    launch(starve_[next], starts);
    room -= starve_[next].nodes;
  }
  scanned += std::min(next + 1, starve_.size());

  // With no reservation every window that fits `room` starts; with one at
  // r, a window ending after r must fit `spare` as well (see the header).
  Time r = kNever;
  NodeCount spare = 0;
  const auto fits = [&](const WaitQueue::Entry& job) {
    return job.nodes <= room && (now + job.wcl <= r || job.nodes <= spare);
  };
  const auto start = [&](const WaitQueue::Entry& job) {
    launch(job, starts);
    room -= job.nodes;
    if (now + job.wcl > r) spare -= job.nodes;
  };
  if (next < starve_.size()) {
    r = reserve_head(starve_[next].nodes, spare);
    wakeup_ = r;
    // One compaction pass that writes an entry only once an earlier one
    // has left (writing every entry back costs more than the tests). It
    // stops once `room` is below every waiting width, and the rest moves
    // in one step.
    NodeCount narrowest = starve_[next].nodes;
    if (next != 0) starve_[0] = starve_[next];
    std::size_t kept = 1;
    std::size_t i = next + 1;
    for (; i < starve_.size() && room >= starve_min_nodes_; ++i) {
      const WaitQueue::Entry& job = starve_[i];
      if (fits(job)) {
        start(job);
        continue;
      }
      narrowest = std::min(narrowest, job.nodes);
      if (kept != i) starve_[kept] = job;
      ++kept;
    }
    scanned += i - next - 1;
    if (i == starve_.size()) starve_min_nodes_ = narrowest;
    starve_.erase(starve_.begin() + static_cast<std::ptrdiff_t>(kept),
                  starve_.begin() + static_cast<std::ptrdiff_t>(i));
  } else {
    starve_.clear();
    starve_min_nodes_ = kWiderThanAny;
  }

  // Then the main queue, in fairshare (or configured) order.
  if (room >= queue_min_nodes_) {
    scanned += queue_.size();
    queue_min_nodes_ = kWiderThanAny;
    eligible_from_ = kNever;
    queue_.retain([&](const WaitQueue::Entry& job) {
      if (fits(job)) {
        start(job);
        return false;
      }
      queue_min_nodes_ = std::min(queue_min_nodes_, job.nodes);
      eligible_from_ = std::min(eligible_from_, job.submit + config_.starvation_delay);
      return true;
    });
  }

  // Timers: the head reservation, the next starvation-eligibility instant,
  // and (with the heavy-user bar) a periodic recheck for barred jobs.
  if (starvation_enabled()) {
    if (now < eligible_from_) {
      if (eligible_from_ != kNever && (!wakeup_ || eligible_from_ < *wakeup_))
        wakeup_ = eligible_from_;
    } else {
      // Some job is eligible but still here, so it is barred.
      scanned += queue_.size();
      for (const WaitQueue::Entry& job : queue_) {
        const Time eligible_at = job.submit + config_.starvation_delay;
        if (eligible_at > now && (!wakeup_ || eligible_at < *wakeup_)) wakeup_ = eligible_at;
      }
      const Time recheck = now + kHeavyRecheckInterval;
      if (!wakeup_ || recheck < *wakeup_) wakeup_ = recheck;
    }
  }
  obs::count(obs::Counter::kSchedCplantEntriesScanned, scanned);
}

std::optional<Time> CplantScheduler::next_wakeup() const { return wakeup_; }

}  // namespace psched
