#pragma once
// Reservation-depth backfilling (paper section 1: "Many production
// schedulers use variations between conservative and aggressive backfilling,
// giving the first n jobs in the queue a reservation").
//
// At every scheduling event the first `depth` jobs in priority order receive
// reservations (computed in that order); any other job may start immediately
// if it violates none of them. depth == 1 IS EASY / aggressive backfilling
// (make_scheduler builds PolicyKind::Easy this way): only the head holds a
// reservation. Depth large enough to cover the queue approaches
// conservative-with-dynamic-reservations (reservations are replanned every
// event, not sticky).

#include <optional>

#include "core/scheduler.hpp"

namespace psched {

struct DepthConfig {
  PriorityKind priority = PriorityKind::Fairshare;
  int reservation_depth = 4;  ///< >= 1
};

class DepthScheduler final : public Scheduler {
 public:
  explicit DepthScheduler(DepthConfig config);

  std::string name() const override;
  void on_submit(JobId id) override;
  void on_complete(JobId id) override;
  void collect_starts(std::vector<JobId>& starts) override;
  std::optional<Time> next_wakeup() const override;
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

 private:
  DepthConfig config_;
  WaitQueue queue_;
  std::optional<Time> wakeup_;
};

}  // namespace psched
