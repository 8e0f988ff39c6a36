#pragma once
// Scheduler interface: the policy side of the simulator. The simulation
// engine owns machine state, running jobs, fairshare accounting and the event
// loop; a Scheduler observes submissions/completions and answers two
// questions at every scheduling event: "which waiting jobs start right now?"
// and "when do you next need to act without an external event?".

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fairshare.hpp"
#include "core/job.hpp"
#include "core/profile.hpp"
#include "core/types.hpp"

namespace psched {

/// What a policy may legitimately know about a running job: its identity,
/// width, start, and *estimated* end (start + WCL). Actual runtimes are
/// hidden — production schedulers only see estimates.
struct RunningView {
  JobId id = kInvalidJob;
  NodeCount nodes = 0;
  Time start = 0;
  Time est_end = 0;
};

/// SchedulerContext::priority_epoch() value meaning "user_usage() may change
/// between any two calls": consumers must re-read usages every time.
inline constexpr std::uint64_t kVolatilePriorityEpoch = ~std::uint64_t{0};

/// Read-only window onto engine state, implemented by sim::SimulationEngine
/// (and by lightweight fixtures in tests).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;
  virtual Time now() const = 0;
  virtual NodeCount total_nodes() const = 0;
  virtual NodeCount free_nodes() const = 0;
  virtual const Job& job(JobId id) const = 0;
  virtual const std::vector<RunningView>& running() const = 0;
  /// Decayed fairshare usage of a user (lower = higher priority).
  virtual double user_usage(UserId user) const = 0;
  /// Mean usage over users with positive usage (heavy-user bar threshold).
  virtual double mean_positive_usage() const = 0;
  /// Version stamp of user_usage(). Contract: while two calls return the
  /// same value other than kVolatilePriorityEpoch, user_usage() returned the
  /// same value for every user in between; a moved epoch never comes back.
  /// The engine forwards FairshareTracker::epoch(). The default reports
  /// kVolatilePriorityEpoch, so a context that does not track changes makes
  /// every WaitQueue re-read and re-sort at every refresh.
  virtual std::uint64_t priority_epoch() const { return kVolatilePriorityEpoch; }
};

/// Queue ordering used by the policies. Fairshare is the Sandia production
/// order; Fcfs is used for baselines and for the CONS_P fairness metric.
enum class PriorityKind { Fairshare, Fcfs };

/// The waiting set every built-in policy keeps, in priority order: ascending
/// (usage key, submit, id), where the usage key is the user's published
/// fairshare usage under PriorityKind::Fairshare and 0 under Fcfs. Keys are
/// stored per entry and stay valid while the context's priority_epoch()
/// holds still, so the order is maintained rather than recomputed per
/// event: arrivals go in by binary insertion, starts leave in one compaction
/// pass (retain), and refresh() re-reads usages and re-sorts only after the
/// epoch moved (at every call under a volatile epoch, never under Fcfs,
/// whose keys are constant). Nothing is indexed by record id, so copying a
/// queue (Scheduler::clone) costs O(queue depth).
class WaitQueue {
 public:
  struct Entry {
    double usage = 0.0;  ///< priority key (0 under Fcfs)
    Time submit = 0;
    Time wcl = 0;
    /// Policy-owned slot: the conservative family's stored reservation
    /// (kNoTime until first seated). The other policies leave it alone.
    Time reservation = kNoTime;
    JobId id = kInvalidJob;
    UserId user = 0;
    NodeCount nodes = 0;
  };

  explicit WaitQueue(PriorityKind kind) : kind_(kind) {}

  /// Insert newly submitted job `id` (read through ctx.job) at its priority
  /// position under the context's current usage; returns that position.
  std::size_t push(const SchedulerContext& ctx, JobId id);

  /// True if refresh() would re-read usages and re-sort.
  bool stale(const SchedulerContext& ctx) const;

  /// Bring the order up to date with the context; returns true if it
  /// re-sorted. Call once per scheduling event before relying on the order.
  bool refresh(const SchedulerContext& ctx);

  /// Call keep(entry) on every entry in queue order and drop the entries it
  /// rejects, in one compaction pass. keep may only write Entry::reservation.
  template <typename Keep>
  void retain(Keep&& keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!keep(entries_[i])) continue;
      if (kept != i) entries_[kept] = entries_[i];
      ++kept;
    }
    entries_.resize(kept);
  }

  // Iteration in priority order. Callers may only write Entry::reservation.
  std::vector<Entry>::iterator begin() { return entries_.begin(); }
  std::vector<Entry>::iterator end() { return entries_.end(); }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }
  Entry& operator[](std::size_t i) { return entries_[i]; }
  const Entry& operator[](std::size_t i) const { return entries_[i]; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  PriorityKind kind_;
  /// Epoch the stored usage keys were read at; the volatile value means
  /// "never sorted", so the first refresh always re-reads.
  std::uint64_t sorted_epoch_ = kVolatilePriorityEpoch;
  std::vector<Entry> entries_;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Must be called once before any event is delivered.
  void attach(const SchedulerContext& context) { ctx_ = &context; }

  virtual std::string name() const = 0;

  /// A job entered the wait queue at ctx().now().
  virtual void on_submit(JobId id) = 0;

  /// A running job completed (its nodes are already back in the free pool).
  virtual void on_complete(JobId id) = 0;

  /// Append jobs to launch *now*, in launch order. The engine launches them
  /// in exactly that order and errors out on infeasible requests, so the
  /// scheduler must account for its own picks within one call (free nodes
  /// are not refreshed until the call returns). Implementations remove
  /// emitted jobs from their own queues.
  virtual void collect_starts(std::vector<JobId>& starts) = 0;

  /// Next time the scheduler needs a timer event (reservation start,
  /// starvation-queue eligibility, ...). nullopt = only external events.
  virtual std::optional<Time> next_wakeup() const { return std::nullopt; }

  /// Deep-copy the scheduler, including all queue and planning state (e.g.
  /// the conservative family's persistent plan profile). The clone is NOT
  /// attached — the new owner must call attach() with its own context before
  /// delivering events. This is what makes the simulation engine forkable
  /// (sim::SimulationEngine::fork_for_arrival): a fork resumes mid-run from
  /// a byte-identical policy state. The default returns nullptr, meaning the
  /// scheduler does not support forking; all built-in policies override it.
  virtual std::unique_ptr<Scheduler> clone() const { return nullptr; }

 protected:
  const SchedulerContext& ctx() const;

  /// Helper for clone() implementations: copy-construct `Derived` and clear
  /// the copied context pointer, so using the clone before attach() fails
  /// loudly instead of silently reading the original engine's state.
  template <typename Derived>
  static std::unique_ptr<Scheduler> cloned(const Derived& self) {
    auto copy = std::make_unique<Derived>(self);
    copy->ctx_ = nullptr;
    return copy;
  }

  /// queue.refresh(ctx()), counting a re-sort as obs
  /// scheduler.priority_resorts. Policies refresh through here.
  bool refresh_queue(WaitQueue& queue) const;

  /// Reset `profile` to "all free from ctx().now()" minus every running
  /// job's usage up to its assumed_running_end, in one bulk
  /// Profile::reset. Returns those intervals in ctx().running() order.
  const std::vector<Profile::Busy>& seed_running_usage(Profile& profile);

  /// The shared per-scheduler scratch profile, seeded with the running
  /// jobs (seed_running_usage). Lazily sized to ctx().total_nodes();
  /// reusing it across scheduling events avoids re-allocating the step
  /// vector on every event.
  Profile& running_profile();

  /// Start `entry` now if its nodes are free and its window [now, now +
  /// wcl) fits `profile`: the window goes into the profile, the job into
  /// `starts`, its nodes out of `free`. The free-node test comes first and
  /// stays inline: it turns most blocked jobs away without a profile scan.
  static bool start_if_fits(const WaitQueue::Entry& entry, Time now, Profile& profile,
                            NodeCount& free, std::vector<JobId>& starts) {
    if (entry.nodes > free || !profile.try_add_usage(now, now + entry.wcl, entry.nodes))
      return false;
    starts.push_back(entry.id);
    free -= entry.nodes;
    return true;
  }

  /// Assumed end of a running job's usage at time `now`: its estimated end,
  /// or — once it has over-run — an exponential-backoff horizon of
  /// max(kOverrunGrace, elapsed overrun) more seconds. The single source of
  /// truth for every policy's profile seeding.
  static Time assumed_running_end(const RunningView& r, Time now);

  /// Minimum assumed remaining runtime for a job past its WCL.
  static constexpr Time kOverrunGrace = 300;

 private:
  const SchedulerContext* ctx_ = nullptr;
  std::optional<Profile> scratch_profile_;
  std::vector<Profile::Busy> running_busy_;  ///< seed_running_usage's intervals
};

}  // namespace psched
