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
// tests/test_sched_determinism.cpp diffs this against the profile-based
// algorithm on the seed ReferenceProfile.

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

  const CplantConfig& config() const { return config_; }

 private:
  bool starvation_enabled() const { return config_.starvation_delay != kNoTime; }
  void promote_starving_jobs();
  /// The reservation of a blocked starvation head `nodes` wide, given
  /// `free_now` free nodes at now: the first instant the ends in ends_
  /// (this call's starts) and of the running jobs free its nodes. Sets
  /// `spare` to the free nodes left beside it then.
  Time reserve_head(NodeCount nodes, NodeCount free_now, NodeCount& spare);

  CplantConfig config_;
  WaitQueue queue_;  // main queue, priority order
  /// Starvation queue, in entry order: each promotion appends its jobs
  /// sorted by (submit, id), so a barred job let in late sits behind
  /// younger jobs.
  std::vector<WaitQueue::Entry> starve_;
  std::optional<Time> wakeup_;
  struct End {
    Time at;
    NodeCount nodes;
  };
  /// collect_starts scratch: the (end, nodes) of this call's starts ahead
  /// of the head, then of the running jobs; reserve_head heap-orders it.
  std::vector<End> ends_;
};

}  // namespace psched
