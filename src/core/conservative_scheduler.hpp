#pragma once
// Conservative backfilling (paper section 5.3) and conservative backfilling
// with dynamic reservations (section 5.4).
//
// Static mode: every job receives an internal reservation on arrival (the
// earliest slot that delays nobody). At each scheduling event the queue is
// processed in fairshare priority order and each job may *improve* its
// reservation — it never gives one up unless the new slot is strictly
// earlier, so arrival-time reservations are upper bounds on wait time and no
// starvation queue is needed.
//
// Dynamic mode: reservations are not sticky. At every scheduling event all
// reservations are discarded and the whole schedule is rebuilt in fairshare
// priority order, removing the "FCFS feel" of static conservative — a job's
// position tracks its user's current fairshare standing.
//
// Implementation note — incremental replanning. The observable behavior is
// exactly the naive per-event rebuild described above (the determinism test
// in tests/test_sched_determinism.cpp checks this against a verbatim copy of
// the original algorithm), but the planned-schedule profile is kept alive
// across events and updated in place:
//   * an arrival seats only the new job (the planning prefix is unchanged);
//   * a completion returns the completed job's planned usage and triggers a
//     compression pass, which is skipped once the plan reaches a fixed point
//     (no capacity freed and the previous pass moved nothing — provably a
//     no-op);
//   * dynamic mode keeps the longest prefix of the priority order that the
//     current plan was built in and replans only the suffix, falling back to
//     a full rebuild when more than half the queue reshuffled. While the
//     priority epoch holds still that prefix is the run of already-seated
//     entries at the head of the queue (arrivals are unseated until their
//     first replan); after a re-sort it is the common prefix of the
//     pre-sort seated order and the post-sort order;
//   * a full rebuild also happens whenever a running job over-runs its
//     estimate (the assumed over-run horizon then changes every event).
// Each job's reservation lives in its WaitQueue entry (kNoTime = not yet
// seated), so a replan walks the queue with no per-job lookups, started jobs
// leave in the launch loop's one compaction pass, and clone() copies
// O(queue depth + running jobs) with nothing indexed by record id.
//
// Seating. Every seat is one Profile::reserve (scan and subtract in one
// pass). Dynamic mode's two seating loops (the full rebuild and the
// replanned suffix) seat every job from `now` on a plan that only gains
// usage while the loop runs. If an earlier seat k of the same loop is no
// longer (wcl) and no wider (nodes) than job j, no start before k's slot
// fitted k when k was seated, adding usage cannot make one fit later, and
// any window that fits j also fits k — so k's slot is a lower bound on j's
// earliest fit from `now`, and scanning from it returns the same slot. The
// scan starts at the latest such slot among the loop's last 8 seats placed
// after `now` (a seat at `now` bounds nothing), kept in a fixed array
// compared branch-free. The window size is a measured constant. On
// consdyn.nomax over the Ross trace at 2x load (one cell, 4-core x86
// host, median of 4 runs), the scans advance 4.73G steps in
// 12.6 s with no floor; windows of 4 / 8 / 16 seats advance 1.96G / 1.47G
// / 1.07G steps in 8.2 / 8.2 / 8.1 s, within noise of each other. An exact
// Pareto frontier over every earlier seat cuts steps to 0.54G (-89%) but
// takes 13.9 s: its branchy compares cost more than the steps they save.

#include <optional>

#include "core/scheduler.hpp"

namespace psched {

struct ConservativeConfig {
  PriorityKind priority = PriorityKind::Fairshare;
  bool dynamic_reservations = false;
};

class ConservativeScheduler final : public Scheduler {
 public:
  explicit ConservativeScheduler(ConservativeConfig config);

  std::string name() const override;
  void on_submit(JobId id) override;
  void on_complete(JobId id) override;
  void collect_starts(std::vector<JobId>& starts) override;
  std::optional<Time> next_wakeup() const override;
  /// Copies the whole incremental-planning state — the persistent plan
  /// `Profile` (its value semantics are pinned by
  /// ProfileDeep.CopiesAreIndependentAndMatchReplays), the wait queue with
  /// its reservations and sort epoch, pending completions and the
  /// fixed-point compression flags — so a fork replans byte-identically to
  /// the original from the clone point on.
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

  const ConservativeConfig& config() const { return config_; }

 private:
  using Entry = WaitQueue::Entry;

  /// Rebuild the plan profile and all reservations from scratch for "now"
  /// (the pre-optimization per-event behavior). Static mode keeps each
  /// stored slot unless an improvement (searched in priority order) is
  /// strictly earlier; dynamic mode replans everything in priority order.
  void full_replan(Time now);

  /// Apply this event's arrivals/completions to the persistent plan without
  /// reseating unaffected reservations. Returns false if the plan cannot be
  /// patched (caller falls back to full_replan). `seated_before_resort` is
  /// set when this event re-sorted the queue (dynamic mode only): the ids
  /// of the entries that were seated, in their pre-sort order.
  bool incremental_replan(Time now, const std::vector<JobId>* seated_before_resort);

  /// Seed running-job usage into a freshly reset plan profile; fills
  /// planned_runs_.
  void seed_running_usage(Time now);

  /// One compression round: in priority order, each job moves to a strictly
  /// earlier slot if one exists. Updates compress_active_/capacity_freed_.
  void compression_pass(Time now);

  /// Seat `entry` at its earliest fit from `from` and store the slot.
  void seat(Entry& entry, Time from);

  /// Dynamic mode: seat queue_[first..] in order, each at its earliest fit
  /// from `now`, starting each scan at the floor proven by earlier seats of
  /// this loop.
  void seat_all_from_now(std::size_t first, Time now);

  ConservativeConfig config_;
  /// Waiting jobs in priority order; Entry::reservation is the stored start
  /// (kNoTime until the job's first replan).
  WaitQueue queue_;
  std::optional<Time> wakeup_;

  // --- persistent planning state (incremental replanning) -------------------
  std::optional<Profile> plan_;  ///< running usage + all reservations
  bool plan_valid_ = false;      ///< plan_ mirrors the last event's schedule
  /// A running job's usage inside plan_: [.., end) on `nodes` nodes.
  struct PlannedRun {
    JobId id;
    NodeCount nodes;
    Time end;
  };
  std::vector<PlannedRun> planned_runs_;    ///< every running job in plan_
  std::vector<JobId> pending_completions_;  ///< completed since last event
  /// A completion freed future capacity since the last compression pass.
  bool capacity_freed_ = false;
  /// The last compression pass moved at least one reservation (so the next
  /// one may cascade further and cannot be skipped).
  bool compress_active_ = false;
};

}  // namespace psched
