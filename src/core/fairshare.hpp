#pragma once
// The Sandia "fairshare" queuing priority (paper section 2.1): a historical
// sum of processor-seconds used per user that decays on a regular basis
// (every 24 hours on CPlant). Users with *lower* decayed usage get *higher*
// queue priority, so users who have not recently used the machine go first.
//
// The tracker accrues usage continuously while jobs run: the simulation
// engine calls advance() at every event boundary, and the tracker integrates
// running-processor counts over the elapsed interval, applying the decay at
// each period boundary it crosses.
//
// Queue order depends only on usage(), so the tracker versions it: epoch()
// moves whenever usage() can change, and a scheduler's WaitQueue keeps its
// order between moves. Under the default AtDecayBoundary that is once per
// publish boundary (a daily re-sort instead of one per event); under
// Continuous it is every accrual. The heavy-user threshold
// (mean_positive_usage) is likewise computed once per publish.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace psched {

/// When the *published* priority value refreshes. Production fairshare
/// systems recompute priorities on the decay schedule (a daily batch on
/// CPlant), so queue order is stable between refreshes; Continuous updates
/// the published value at every accrual instead (an idealized variant used
/// by ablations).
enum class FairshareUpdate { AtDecayBoundary, Continuous };

class FairshareTracker {
 public:
  /// decay_factor in (0, 1]: multiplier applied to all usage at each period
  /// boundary (1.0 disables decay and degenerates to total historical usage).
  FairshareTracker(double decay_factor, Time decay_period, Time start_time = 0,
                   FairshareUpdate update = FairshareUpdate::AtDecayBoundary);

  /// Move the clock to `to` (>= now()): accrue usage for running processors
  /// and apply decay at each crossed period boundary.
  void advance(Time to);

  /// A job of `user` started/stopped using `nodes` processors at now().
  void on_job_start(UserId user, NodeCount nodes);
  void on_job_stop(UserId user, NodeCount nodes);

  Time now() const { return now_; }

  /// Published decayed processor-seconds of `user` (the queuing priority
  /// value; lower goes first). Unknown users have 0. Under AtDecayBoundary
  /// this is the value computed at the most recent boundary; under
  /// Continuous it tracks accrual instantly.
  double usage(UserId user) const;

  /// Instantaneous decayed usage regardless of update mode (metrics/tests).
  double live_usage(UserId user) const;

  /// Mean usage over users with positive usage; 0 if none. Used by the
  /// "bar heavy users from the starvation queue" policy. Under
  /// AtDecayBoundary it is computed at each publish and read back in O(1);
  /// under Continuous it scans the users on every call.
  double mean_positive_usage() const;

  /// Version of usage(): moves at every publish boundary and, under
  /// Continuous, at every accrual that adds usage. While it holds still,
  /// usage() returns the same value for every user (see
  /// SchedulerContext::priority_epoch).
  std::uint64_t epoch() const { return epoch_; }

  /// Number of distinct users ever observed.
  std::size_t user_count() const { return users_.size(); }

  /// Sum of currently running processors (accrual-rate sanity checks).
  NodeCount running_processors() const { return total_running_; }

 private:
  struct UserState {
    double usage = 0.0;      // live decayed proc-seconds
    double published = 0.0;  // value exposed as the queue priority
    NodeCount running = 0;
  };

  void accrue(Time dt);
  UserState& state(UserId user);
  /// Mean of the positive values over users, in user-index order.
  double mean_positive(bool published) const;

  double decay_factor_;
  Time decay_period_;
  Time now_;
  Time next_decay_;
  FairshareUpdate update_;
  NodeCount total_running_ = 0;
  std::uint64_t epoch_ = 0;
  double published_mean_ = 0.0;  ///< mean_positive(true) as of the last publish
  std::vector<UserState> users_;  // dense by UserId
};

}  // namespace psched
