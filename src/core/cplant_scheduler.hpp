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

  CplantConfig config_;
  WaitQueue queue_;  // main queue, priority order
  /// Starvation queue, in entry order: each promotion appends its jobs
  /// sorted by (submit, id), so a barred job let in late sits behind
  /// younger jobs.
  std::vector<WaitQueue::Entry> starve_;
  std::optional<Time> wakeup_;
};

}  // namespace psched
