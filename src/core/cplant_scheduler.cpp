#include "core/cplant_scheduler.hpp"

#include <algorithm>

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

void CplantScheduler::collect_starts(std::vector<JobId>& starts) {
  wakeup_.reset();
  refresh_queue(queue_);
  promote_starving_jobs();

  const Time now = ctx().now();
  NodeCount free = ctx().free_nodes();
  Profile& profile = running_profile();

  // Starvation queue first, FCFS, in one compaction pass: a job starts if
  // it fits; the first one that does not takes the single internal
  // reservation and stays, and the jobs behind it may still start if they
  // respect it.
  std::optional<Time> head_reservation;
  std::size_t kept = 0;
  for (const WaitQueue::Entry& job : starve_) {
    if (start_if_fits(job, now, profile, free, starts)) continue;
    if (!head_reservation) head_reservation = profile.reserve(now, job.wcl, job.nodes);
    starve_[kept++] = job;
  }
  starve_.resize(kept);

  // Then the main queue, in fairshare (or configured) order.
  queue_.retain([&](const WaitQueue::Entry& job) {
    return !start_if_fits(job, now, profile, free, starts);
  });

  // Timers: the head reservation, the next starvation-eligibility instant,
  // and (with the heavy-user bar) a periodic recheck for barred jobs.
  std::optional<Time> wake = head_reservation;
  if (starvation_enabled()) {
    bool any_barred_now = false;
    for (const WaitQueue::Entry& job : queue_) {
      const Time eligible_at = job.submit + config_.starvation_delay;
      if (eligible_at > now) {
        if (!wake || eligible_at < *wake) wake = eligible_at;
      } else {
        any_barred_now = true;  // eligible but (necessarily) barred
      }
    }
    if (any_barred_now) {
      const Time recheck = now + kHeavyRecheckInterval;
      if (!wake || recheck < *wake) wake = recheck;
    }
  }
  wakeup_ = wake;
}

std::optional<Time> CplantScheduler::next_wakeup() const { return wakeup_; }

}  // namespace psched
