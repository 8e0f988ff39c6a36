#include "core/fcfs_scheduler.hpp"

namespace psched {

FcfsScheduler::FcfsScheduler(PriorityKind priority) : priority_(priority), queue_(priority) {}

std::string FcfsScheduler::name() const {
  return priority_ == PriorityKind::Fcfs ? "fcfs" : "fcfs.fairshare";
}

void FcfsScheduler::on_submit(JobId id) { queue_.push(ctx(), id); }

void FcfsScheduler::on_complete(JobId) {}

void FcfsScheduler::collect_starts(std::vector<JobId>& starts) {
  refresh_queue(queue_);
  NodeCount free = ctx().free_nodes();
  bool blocked = false;
  queue_.retain([&](const WaitQueue::Entry& entry) {
    // Strict: the head blocks everyone behind it.
    if (blocked || entry.nodes > free) {
      blocked = true;
      return true;
    }
    starts.push_back(entry.id);
    free -= entry.nodes;
    return false;
  });
}

}  // namespace psched
