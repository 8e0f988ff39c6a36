#pragma once
// Strict First-Come-First-Serve without backfilling (paper Figure 1): only
// the job at the head of the queue may start; everything else waits even if
// nodes are idle. "Fair" in arrival order but poor utilization — the paper's
// motivating strawman and a useful lower bound in tests.

#include "core/scheduler.hpp"

namespace psched {

class FcfsScheduler final : public Scheduler {
 public:
  /// `priority` generalizes "first" — Fcfs is the classical scheduler; the
  /// Fairshare variant runs a strict no-backfill queue in fairshare order.
  explicit FcfsScheduler(PriorityKind priority = PriorityKind::Fcfs);

  std::string name() const override;
  void on_submit(JobId id) override;
  void on_complete(JobId id) override;
  void collect_starts(std::vector<JobId>& starts) override;
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

 private:
  PriorityKind priority_;
  WaitQueue queue_;
};

}  // namespace psched
