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

std::size_t WaitQueue::push(const SchedulerContext& ctx, JobId id) {
  const Job& job = ctx.job(id);
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

const std::vector<Profile::Busy>& Scheduler::seed_running_usage(Profile& profile) {
  const Time now = ctx().now();
  running_busy_.clear();
  for (const RunningView& r : ctx().running())
    running_busy_.push_back({assumed_running_end(r, now), r.nodes});
  profile.reset(now, running_busy_);
  return running_busy_;
}

Profile& Scheduler::running_profile() {
  const NodeCount capacity = ctx().total_nodes();
  if (!scratch_profile_ || scratch_profile_->capacity() != capacity)
    scratch_profile_.emplace(capacity, ctx().now());
  seed_running_usage(*scratch_profile_);
  return *scratch_profile_;
}

}  // namespace psched
