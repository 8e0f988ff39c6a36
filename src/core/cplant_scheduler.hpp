#pragma once
// The Sandia CPlant production scheduler (paper section 2.1) and its "minor
// change" variants (sections 5.2 / 5.5):
//
//   * no-guarantee backfilling: at every scheduling event the wait queue is
//     processed in fairshare priority order and any job that fits in the
//     currently free nodes is started — no internal reservations;
//   * a secondary FCFS "starvation queue": jobs that have waited longer than
//     `starvation_delay` (24 h in production) move there; its *head* receives
//     an aggressive-backfilling-style reservation, guaranteeing progress;
//   * optional heavy-user bar: jobs of users whose decayed fairshare usage
//     exceeds `heavy_user_factor` x (mean positive usage) are temporarily
//     refused entry into the starvation queue (policy *.fair).
//
// Setting starvation_delay = kNoTime yields pure no-guarantee backfilling
// (used by tests/ablations; production CPlant always had the queue).
//
// Implementation note: starts are decided without an availability profile.
// The only usage in play is the running jobs' (each from now to its
// assumed_running_end, which lies after now even for an over-runner) and
// the windows of this call's own starts, which also begin at now. So the
// free count F(t) of the profile those intervals would build never falls
// as t grows, and every answer the profile gave reduces to integers:
//   * with no reservation, a window [now, now + wcl) fits iff its nodes fit
//     in F(now); `room` is min(free_nodes(), F(now)), lowered by each start;
//   * the head's reservation r is the earliest t with F(t) >= its nodes h,
//     found by walking the running and started ends in time order;
//     `spare` = F(r) - h;
//   * with the reservation held, F(now) is still the minimum before r, and
//     F(r) - h the minimum over [r, r + head wcl), so a window fits iff its
//     nodes fit in `room` and, when it ends after r, in `spare` as well. A
//     start that ends after r lowers F(r), hence `spare`; one that ends
//     exactly at r touches neither.
//
// Each call costs what can start, not the queue depth or the running count:
//   * Running ends in estimate order. The scheduler keeps its own starts
//     that have not completed (which are exactly ctx().running(); the call
//     checks the sizes) sorted by (est_end, id), with their node total.
//     An over-runner (est_end <= now) is assumed to end at now + max(300,
//     now - est_end), which never rises as est_end rises, so the
//     over-runners form a prefix whose assumed ends descend, and every
//     later entry ends at its est_end, ascending. Read backwards and
//     forwards from the split, the two runs merge into time order, so the
//     walk to r pops only the ends up to r and those tied with it. This
//     call's starts ahead of the head enter the index first: their est_end
//     is now + wcl > now, their end.
//   * Width bounds. Each queue keeps a lower bound on the width of its
//     entries: lowered by every entry that joins, recomputed by every
//     pass that reads all of it. A job starts only if its nodes fit
//     `room`, so while `room` is below a queue's bound none of its entries
//     can start: the main queue's pass is skipped, and the starvation
//     tail scan stops there and keeps the rest as it stands.
//   * Eligibility minimum. `eligible_from_` is the exact minimum of submit
//     + starvation_delay over the main queue: on_submit lowers it, and each
//     pass that removes entries (promotion, the main queue's) recomputes
//     it over the entries it keeps. While now is below it no job is
//     eligible, so promotion moves nothing and the eligibility wake is
//     that minimum. Once it is at or below now, an eligible job is still
//     in the main queue after promotion, which only a heavy-user bar
//     leaves there; the timer pass then reads the whole queue for the
//     first future eligibility and arms the recheck.
// tests/test_sched_determinism.cpp diffs this against the profile-based
// algorithm on the seed ReferenceProfile.

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/scheduler.hpp"

namespace psched {

struct CplantConfig {
  PriorityKind priority = PriorityKind::Fairshare;
  Time starvation_delay = hours(24);
  bool bar_heavy_users = false;
  double heavy_user_factor = 1.0;
};

class CplantScheduler final : public Scheduler {
 public:
  explicit CplantScheduler(CplantConfig config);

  std::string name() const override;
  void on_submit(JobId id) override;
  void on_complete(JobId id) override;
  void collect_starts(std::vector<JobId>& starts) override;
  std::optional<Time> next_wakeup() const override;
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

 private:
  static constexpr Time kNever = std::numeric_limits<Time>::max();
  static constexpr NodeCount kWiderThanAny = std::numeric_limits<NodeCount>::max();

  bool starvation_enabled() const { return config_.starvation_delay != kNoTime; }
  /// Move the eligible, unbarred main-queue jobs to the starvation queue;
  /// returns the entries it read.
  std::uint64_t promote_starving_jobs();
  /// Emit `job` into `starts` and into running_.
  void launch(const WaitQueue::Entry& job, std::vector<JobId>& starts);
  /// The reservation of a blocked starvation head `nodes` wide: the first
  /// instant the running ends (this call's starts included) free its
  /// nodes. Sets `spare` to the free nodes left beside it then.
  Time reserve_head(NodeCount nodes, NodeCount& spare) const;

  CplantConfig config_;
  WaitQueue queue_;  // main queue, priority order
  /// Starvation queue, in entry order: each promotion appends its jobs
  /// sorted by (submit, id), so a barred job let in late sits behind
  /// younger jobs.
  std::vector<WaitQueue::Entry> starve_;
  std::optional<Time> wakeup_;
  /// This scheduler's starts that have not completed, ascending (est_end,
  /// id), and their node total.
  std::vector<RunningView> running_;
  NodeCount running_nodes_ = 0;
  /// Lower bounds on every width in starve_ and in queue_.
  NodeCount starve_min_nodes_ = kWiderThanAny;
  NodeCount queue_min_nodes_ = kWiderThanAny;
  /// Exact minimum of submit + starvation_delay over queue_ (kNever when
  /// it is empty); read only with starvation on.
  Time eligible_from_ = kNever;
};

}  // namespace psched
