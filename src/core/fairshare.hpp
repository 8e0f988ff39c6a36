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
// There is one update mode, CPlant's: the decayed usage is *published* once
// per decay period (a daily batch), at the boundary, and usage() returns the
// published value, so queue order is stable between publishes. Queue order
// depends only on usage(), so the tracker versions it: epoch() moves at each
// publish, and a scheduler's WaitQueue keeps its order between moves (a
// daily re-sort instead of one per event). The heavy-user threshold
// (mean_positive_usage) is likewise computed once per publish.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace psched {

class FairshareTracker {
 public:
  /// decay_factor in (0, 1]: multiplier applied to all usage at each period
  /// boundary (1.0 disables decay and degenerates to total historical usage).
  FairshareTracker(double decay_factor, Time decay_period, Time start_time = 0);

  /// Move the clock to `to` (>= now()): accrue usage for running processors
  /// and apply decay at each crossed period boundary.
  void advance(Time to);

  /// A job of `user` started/stopped using `nodes` processors at now().
  void on_job_start(UserId user, NodeCount nodes);
  void on_job_stop(UserId user, NodeCount nodes);

  Time now() const { return now_; }

  /// Published decayed processor-seconds of `user` (the queuing priority
  /// value; lower goes first), as of the most recent publish boundary.
  /// Unknown users have 0.
  double usage(UserId user) const;

  /// Mean published usage over users with positive usage; 0 if none. Used by
  /// the "bar heavy users from the starvation queue" policy. Computed at each
  /// publish and read back in O(1).
  double mean_positive_usage() const { return published_mean_; }

  /// Version of usage(): moves at every publish boundary. While it holds
  /// still, usage() returns the same value for every user (see
  /// SchedulerContext::priority_epoch).
  std::uint64_t epoch() const { return epoch_; }

 private:
  struct UserState {
    double usage = 0.0;      // live decayed proc-seconds
    double published = 0.0;  // value exposed as the queue priority
    NodeCount running = 0;
  };

  void accrue(Time dt);
  UserState& state(UserId user);

  double decay_factor_;
  Time decay_period_;
  Time now_;
  Time next_decay_;
  NodeCount total_running_ = 0;
  std::uint64_t epoch_ = 0;
  double published_mean_ = 0.0;  ///< mean_positive_usage() as of the last publish
  std::vector<UserState> users_;  // dense by UserId
};

}  // namespace psched
