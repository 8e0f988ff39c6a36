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

void CplantScheduler::on_submit(JobId id) { queue_.push(ctx(), ctx().job(id)); }

void CplantScheduler::on_complete(JobId) {}

void CplantScheduler::promote_starving_jobs() {
  if (!starvation_enabled()) return;
  const Time now = ctx().now();
  // Heavy users: usage above factor x the mean positive usage, read once
  // per event (under AtDecayBoundary it only moves at a publish).
  const double mean = config_.bar_heavy_users ? ctx().mean_positive_usage() : 0.0;
  const bool bar = mean > 0.0;
  const double heavy_above = config_.heavy_user_factor * mean;
  std::vector<WaitQueue::Entry> eligible;
  queue_.retain([&](const WaitQueue::Entry& job) {
    if (now - job.submit < config_.starvation_delay) return true;
    if (bar && ctx().user_usage(job.user) > heavy_above) return true;
    eligible.push_back(job);
    return false;
  });
  // The starvation queue is FCFS by submission.
  std::sort(eligible.begin(), eligible.end(),
            [](const WaitQueue::Entry& a, const WaitQueue::Entry& b) {
              return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
            });
  for (const WaitQueue::Entry& job : eligible) starve_.push_back(job.id);
}

void CplantScheduler::collect_starts(std::vector<JobId>& starts) {
  wakeup_.reset();
  refresh_queue(queue_);
  promote_starving_jobs();

  const Time now = ctx().now();
  NodeCount free = ctx().free_nodes();
  Profile& profile = scratch_profile(now);
  add_running_to_profile(profile);

  std::optional<Time> head_reservation;

  // Starvation queue first, FCFS: start heads while they fit; the first head
  // that does not fit pins the (single) internal reservation.
  while (!starve_.empty()) {
    const Job& head = ctx().job(starve_.front());
    if (head.nodes <= free && profile.fits_at(now, head.wcl, head.nodes)) {
      starts.push_back(head.id);
      profile.add_usage(now, now + head.wcl, head.nodes);
      free -= head.nodes;
      starve_.pop_front();
      continue;
    }
    head_reservation = profile.reserve(now, head.wcl, head.nodes);
    break;
  }

  // Remaining starvation-queue jobs may still start if they respect the head
  // reservation, then the main queue in fairshare (or configured) order.
  auto try_start = [&](JobId id) {
    const Job& job = ctx().job(id);
    if (job.nodes <= free && profile.fits_at(now, job.wcl, job.nodes)) {
      starts.push_back(id);
      profile.add_usage(now, now + job.wcl, job.nodes);
      free -= job.nodes;
      return true;
    }
    return false;
  };

  if (!starve_.empty()) {
    std::deque<JobId> still_starving;
    bool first = true;
    for (const JobId id : starve_) {
      // The blocked head stays put (its reservation is already in the profile).
      if (first) {
        still_starving.push_back(id);
        first = false;
        continue;
      }
      if (!try_start(id)) still_starving.push_back(id);
    }
    starve_ = std::move(still_starving);
  }

  queue_.retain([&](const WaitQueue::Entry& job) { return !try_start(job.id); });

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
