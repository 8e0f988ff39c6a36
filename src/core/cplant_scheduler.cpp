#include "core/cplant_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace psched {

namespace {
/// How often to re-test barred jobs for entry when no other event fires.
constexpr Time kHeavyRecheckInterval = hours(1);
}  // namespace

CplantScheduler::CplantScheduler(CplantConfig config)
    : config_(config), queue_(config.priority) {}

std::string CplantScheduler::name() const {
  if (!starvation_enabled()) return "noguarantee";
  std::string n = "cplant" + std::to_string(config_.starvation_delay / hours(1));
  n += config_.bar_heavy_users ? ".fair" : ".all";
  return n;
}

void CplantScheduler::on_submit(JobId id) { queue_.push(ctx(), id); }

void CplantScheduler::on_complete(JobId) {}

void CplantScheduler::promote_starving_jobs() {
  if (!starvation_enabled()) return;
  const Time now = ctx().now();
  // Heavy users: usage above factor x the mean positive usage, read once
  // per event (under AtDecayBoundary it only moves at a publish).
  const double mean = config_.bar_heavy_users ? ctx().mean_positive_usage() : 0.0;
  const bool bar = mean > 0.0;
  const double heavy_above = config_.heavy_user_factor * mean;
  const std::size_t promoted = starve_.size();
  queue_.retain([&](const WaitQueue::Entry& job) {
    if (now - job.submit < config_.starvation_delay) return true;
    if (bar && ctx().user_usage(job.user) > heavy_above) return true;
    starve_.push_back(job);
    return false;
  });
  // Each promotion enters the starvation queue FCFS by submission.
  std::sort(starve_.begin() + static_cast<std::ptrdiff_t>(promoted), starve_.end(),
            [](const WaitQueue::Entry& a, const WaitQueue::Entry& b) {
              return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
            });
}

Time CplantScheduler::reserve_head(NodeCount nodes, NodeCount free_now, NodeCount& spare) {
  if (nodes > ctx().total_nodes())
    throw std::invalid_argument("CplantScheduler: starvation head wider than the machine");
  const Time now = ctx().now();
  for (const RunningView& r : ctx().running())
    ends_.push_back({assumed_running_end(r, now), r.nodes});
  // Min-heap on the end time. Every end lies after now, and all of them
  // together free the whole machine, so the walk stops.
  const auto later = [](const End& a, const End& b) { return a.at > b.at; };
  std::make_heap(ends_.begin(), ends_.end(), later);
  auto heap_end = ends_.end();
  const auto pop = [&] {
    std::pop_heap(ends_.begin(), heap_end, later);
    --heap_end;
    free_now += heap_end->nodes;
    return heap_end->at;
  };
  Time at = now;
  while (free_now < nodes) at = pop();
  // Jobs ending at `at` have freed their nodes by then as well.
  while (heap_end != ends_.begin() && ends_.front().at == at) pop();
  spare = free_now - nodes;
  return at;
}

void CplantScheduler::collect_starts(std::vector<JobId>& starts) {
  wakeup_.reset();
  refresh_queue(queue_);
  promote_starving_jobs();

  const Time now = ctx().now();
  NodeCount busy = 0;
  for (const RunningView& r : ctx().running()) busy += r.nodes;
  NodeCount free_now = ctx().total_nodes() - busy;
  if (free_now < 0)
    throw std::logic_error("CplantScheduler: running jobs exceed the machine at t=" +
                           std::to_string(now));
  NodeCount room = std::min(ctx().free_nodes(), free_now);

  // Starvation queue first, FCFS: jobs start while they fit. The first one
  // that does not takes the single internal reservation and stays, and the
  // jobs behind it may still start if they respect it.
  ends_.clear();
  std::size_t next = 0;
  for (; next < starve_.size() && starve_[next].nodes <= room; ++next) {
    const WaitQueue::Entry& job = starve_[next];
    starts.push_back(job.id);
    room -= job.nodes;
    free_now -= job.nodes;
    ends_.push_back({now + job.wcl, job.nodes});
  }

  // With no reservation every window that fits `room` starts; with one at
  // r, a window ending after r must fit `spare` as well (see the header).
  Time r = std::numeric_limits<Time>::max();
  NodeCount spare = 0;
  const auto fits = [&](const WaitQueue::Entry& job) {
    return job.nodes <= room && (now + job.wcl <= r || job.nodes <= spare);
  };
  const auto start = [&](const WaitQueue::Entry& job) {
    starts.push_back(job.id);
    room -= job.nodes;
    if (now + job.wcl > r) spare -= job.nodes;
  };
  if (next < starve_.size()) {
    r = reserve_head(starve_[next].nodes, free_now, spare);
    wakeup_ = r;
    // One compaction pass that writes an entry only once an earlier one
    // has left.
    std::size_t kept = 0;
    for (std::size_t i = next; i < starve_.size(); ++i) {
      if (i > next && fits(starve_[i])) {
        start(starve_[i]);
        continue;
      }
      if (kept != i) starve_[kept] = starve_[i];
      ++kept;
    }
    starve_.resize(kept);
  } else {
    starve_.clear();
  }

  // Then the main queue, in fairshare (or configured) order.
  queue_.retain([&](const WaitQueue::Entry& job) {
    if (!fits(job)) return true;
    start(job);
    return false;
  });

  // Timers: the head reservation, the next starvation-eligibility instant,
  // and (with the heavy-user bar) a periodic recheck for barred jobs.
  if (starvation_enabled()) {
    bool any_barred_now = false;
    for (const WaitQueue::Entry& job : queue_) {
      const Time eligible_at = job.submit + config_.starvation_delay;
      if (eligible_at > now) {
        if (!wakeup_ || eligible_at < *wakeup_) wakeup_ = eligible_at;
      } else {
        any_barred_now = true;  // eligible but (necessarily) barred
      }
    }
    if (any_barred_now) {
      const Time recheck = now + kHeavyRecheckInterval;
      if (!wakeup_ || recheck < *wakeup_) wakeup_ = recheck;
    }
  }
}

std::optional<Time> CplantScheduler::next_wakeup() const { return wakeup_; }

}  // namespace psched
