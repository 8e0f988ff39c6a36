#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace psched {

const SchedulerContext& Scheduler::ctx() const {
  if (ctx_ == nullptr) throw std::logic_error("Scheduler used before attach()");
  return *ctx_;
}

namespace {

bool key_less(const WaitQueue::Entry& a, const WaitQueue::Entry& b) {
  if (a.usage != b.usage) return a.usage < b.usage;  // lower decayed usage goes first
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

}  // namespace

std::size_t WaitQueue::push(const SchedulerContext& ctx, const Job& job) {
  Entry entry;
  entry.usage = kind_ == PriorityKind::Fairshare ? ctx.user_usage(job.user) : 0.0;
  entry.submit = job.submit;
  entry.wcl = job.wcl;
  entry.id = job.id;
  entry.user = job.user;
  entry.nodes = job.nodes;
  // Take the index before inserting: a reallocating insert moves begin().
  const auto at = std::upper_bound(entries_.begin(), entries_.end(), entry, key_less);
  const auto index = static_cast<std::size_t>(at - entries_.begin());
  entries_.insert(at, entry);
  return index;
}

bool WaitQueue::stale(const SchedulerContext& ctx) const {
  if (kind_ == PriorityKind::Fcfs) return false;
  const std::uint64_t epoch = ctx.priority_epoch();
  return epoch == kVolatilePriorityEpoch || epoch != sorted_epoch_;
}

bool WaitQueue::refresh(const SchedulerContext& ctx) {
  if (!stale(ctx)) return false;
  sorted_epoch_ = ctx.priority_epoch();
  for (Entry& entry : entries_) entry.usage = ctx.user_usage(entry.user);
  std::sort(entries_.begin(), entries_.end(), key_less);
  return true;
}

bool Scheduler::refresh_queue(WaitQueue& queue) const {
  if (!queue.refresh(ctx())) return false;
  obs::count(obs::Counter::kSchedPriorityResorts);
  return true;
}

Time Scheduler::assumed_running_end(const RunningView& r, Time now) {
  // A job past its estimated end is assumed to keep running for as long as
  // it has already over-run (at least kOverrunGrace). The growing horizon
  // keeps reservation recomputations to O(log overrun) instead of stepping
  // one second at a time.
  if (r.est_end > now) return r.est_end;
  return now + std::max<Time>(kOverrunGrace, now - r.est_end);
}

void Scheduler::add_running_to_profile(Profile& profile) const {
  const Time now = ctx().now();
  profile.begin_batch();
  for (const RunningView& r : ctx().running())
    profile.add_usage(now, assumed_running_end(r, now), r.nodes);
  profile.end_batch();
}

Profile& Scheduler::scratch_profile(Time now) {
  const NodeCount capacity = ctx().total_nodes();
  if (!scratch_profile_ || scratch_profile_->capacity() != capacity)
    scratch_profile_.emplace(capacity, now);
  else
    scratch_profile_->reset(now);
  return *scratch_profile_;
}

}  // namespace psched
