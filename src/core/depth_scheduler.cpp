#include "core/depth_scheduler.hpp"

#include <stdexcept>

namespace psched {

DepthScheduler::DepthScheduler(DepthConfig config)
    : config_(config), queue_(config.priority) {
  if (config_.reservation_depth < 1)
    throw std::invalid_argument("DepthScheduler: reservation_depth must be >= 1");
}

std::string DepthScheduler::name() const {
  std::string n = "depth" + std::to_string(config_.reservation_depth);
  if (config_.priority == PriorityKind::Fcfs) n += ".fcfs";
  return n;
}

void DepthScheduler::on_submit(JobId id) { queue_.push(ctx(), id); }

void DepthScheduler::on_complete(JobId) {}

void DepthScheduler::collect_starts(std::vector<JobId>& starts) {
  wakeup_.reset();
  if (queue_.empty()) return;
  refresh_queue(queue_);

  const Time now = ctx().now();
  NodeCount free = ctx().free_nodes();
  Profile& profile = running_profile();

  std::optional<Time> earliest_reservation;
  int reserved = 0;

  queue_.retain([&](const WaitQueue::Entry& job) {
    // Anyone may start if it fits and violates no reservation made so far.
    if (start_if_fits(job, now, profile, free, starts)) return false;
    // Blocked: the first `depth` blocked jobs (in priority order) pin
    // reservations that later jobs must respect.
    if (reserved < config_.reservation_depth) {
      const Time at = profile.reserve(now, job.wcl, job.nodes);
      if (!earliest_reservation || at < *earliest_reservation) earliest_reservation = at;
      ++reserved;
    }
    return true;
  });
  wakeup_ = earliest_reservation;
}

std::optional<Time> DepthScheduler::next_wakeup() const { return wakeup_; }

}  // namespace psched
