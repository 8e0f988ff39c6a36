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
//     compression pass (static mode) or a rebuild (dynamic mode);
//   * dynamic mode keeps the longest prefix of the priority order that the
//     current plan was built in and replans only the suffix, falling back to
//     a full rebuild when more seated entries lie past that prefix than in
//     it. While the priority epoch holds still that prefix is the run of
//     already-seated entries at the head of the queue (arrivals, and the
//     entries a seating loop cut off, are unseated until a replan seats
//     them); after a re-sort it is the common prefix of the pre-sort seated
//     order and the post-sort order;
//   * a running job past its estimate has an assumed end that grows with
//     `now`. Once completed usage is returned (and, in dynamic mode, the
//     suffix lifted out), each over-running job's planned tail grows in
//     place by [max(planned end, now), new assumed end) if try_add_usage
//     proves the growth fits beside every seat left in the plan; the event
//     then goes on down the incremental path. This is exact: every kept window
//     still fits the subset of that plan the naive rebuild re-seats it into,
//     so it stays put, and added usage opens no earlier start. A growth that
//     does not fit forces a full rebuild (counted as an over-run rebuild, as
//     is any rebuild at an event where some job over-runs). When the
//     over-running job completes, its grown tail is returned like any
//     completion's;
//   * a full rebuild also happens for the first plan, after a launch whose
//     reservation had gone stale, and after a completion the plan does not
//     know.
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
//
// Cutting the dynamic loops. A dynamic replan has two outputs: the jobs
// seated at `now` (they launch) and the earliest seat after `now` (the
// wakeup). Let wake be the earliest seat after `now` among the kept prefix
// and the loop's own seats so far. If none of the Pareto-minimal (wcl,
// nodes) shapes of the entries not yet seated has a start in [now, wake)
// in the plan as it stands (Profile::earliest_fit_before, no clip), the
// loop stops and leaves those entries unseated (kNoTime). This is exact:
// every such entry j is no shorter and no narrower than some frontier
// shape, so a window that fits j fits that shape; and the naive rebuild
// seats j into this plan plus the seats between, which only adds usage.
// So j's naive seat is at or after wake: j does not launch, the wakeup is
// wake, and both outputs are the naive rebuild's. With no seat after `now`
// there is no wake and no cut. (Leaving the prefix out of wake would only
// weaken the cut.) The check is monotone along the loop: the plan gains
// usage, wake only falls and the suffix only shrinks, so once it holds it
// holds at every later index. Checking every kCutStride-th index (and at
// the loop's first) therefore loses at most kCutStride - 1 seats. One
// backward pass per loop builds the suffix frontiers at the check points
// (a staircase: nodes ascending, wcl strictly descending). On consdyn.nomax
// over the Ross trace at 2x load (one cell, 4-core x86 host, median of 3
// runs) the cell took 6.44 s with no cut, and 4.51 / 3.78 / 3.49 / 3.45 s
// checking every 1 / 4 / 8 / 16 seats; at 8 the loops' reserve calls fell
// from 27.18M to 9.70M. The plan stays running usage plus the seated
// entries, which is all the incremental paths assume: an unseated entry
// is handled like a new arrival (seated by the next loop that reaches it,
// with no skip range), and the launch loop skips it. With cut tails in the
// queue, the reshuffle rule above counts seated entries, not the queue:
// counting the queue would turn cut tails into extra full rebuilds.
//
// Re-seating: the freed-capacity horizon. A stored reservation s of job j
// was j's earliest fit from some time <= now when it was placed, so every
// start in [now, s) was blocked then. Adding usage to the plan keeps such a
// start blocked; only freed capacity can unblock it, and only if a freed
// interval reaches past the start. So if every interval freed in j's part
// of the plan since j was seated ends at or before a horizon H, no start in
// [H, s) fits j, and re-seating j hands [H, s) to reserve as a skip range
// (clipped to [now, s) in compression, and to [floor, s) in dynamic mode).
// j's part of the plan is running usage plus every other reservation in
// static mode (a compression seat sees the whole plan), and running usage
// plus the jobs seated ahead of j in dynamic mode. Pass 1 of a static
// rebuild seats a job from its old slot instead of from `now`; if that
// moves it, the move raises H past the old slot, and [H, s) was blocked
// when pass 1 seated it. freed_horizon_ is H, raised by every source of
// freed capacity:
//   * a completion frees its planned usage [now, planned end);
//   * a seat that moves frees its old window [old, old end), whether a
//     compression pass moved it earlier, pass 1 of a static rebuild moved
//     it later (an over-run pushed it), or a dynamic loop moved it either
//     way; within one loop, a move raises the bound of every later seat;
//   * after a dynamic re-sort, the jobs past the common prefix of the old
//     and new order have different jobs ahead of them: they get no skip.
// Nothing else frees capacity: arrivals only add usage, a job launched at
// its reservation keeps exactly that interval as running usage, and an
// over-running job's assumed end only grows (assumed_running_end is
// increasing in `now`), so growing its tail in place and an over-run
// rebuild both carry the horizon over.
// The horizon is also unbounded (no skip) before the first plan, after a
// launch from a stale reservation and after a completion the plan does not
// know: all three are rare, and a conservative horizon needs no proof.
// Static mode skips the compression pass outright when H <= now (no start
// from `now` on can have opened up, so nothing moves); the pass resets H to
// the old ends of the seats it moved, since they freed space for the seats
// it placed before them. A dynamic loop resets H to "nothing freed": every
// seat it placed was proven in the plan as the loop left it, and the jobs
// it kept in place have no freed space ahead of them (a completion that
// frees future capacity forces a full dynamic rebuild).
//
// Compression proves a seat stays without touching the plan. Job j's own
// usage starts at its seat s, so once that usage is returned a start
// t < s fits iff [t, min(t + wcl, s)) fits the plan as it is, with j still
// in it: the part of the window from s on lies inside j's own window, whose
// nodes j's return frees. Profile::earliest_fit_before runs that clipped
// scan over [now, min(H, s)). When it finds no start, j keeps s and the
// pass skips both remove_usage and reserve (most entries: on the Ross trace
// at 2x load, 408k of the 12.05M cons.nomax compression entries move). When
// it finds t0, t0 is j's earliest fit, and j is re-seated from t0.
//
// On the Ross trace at 2x load (one cell each, --stats), the skip cuts the
// profile steps scanned from 1.770G to 1.024G on cons.nomax and from
// 1.466G to 0.521G on consdyn.nomax, with the same slots and replan counts.
// The clipped proof scan and in-place over-run growth then take cons.nomax
// to 0.954G steps and from 20,263 to 10,017 over-run rebuilds: the saving
// is in plan mutations, not scan steps (cell wall 4.9 s -> 2.3 s on one
// core of a 4-core x86 host).

#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/obs.hpp"

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
  /// freed-capacity horizon — so a fork replans byte-identically to the
  /// original from the clone point on.
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

 private:
  using Entry = WaitQueue::Entry;

  /// Rebuild the plan profile and all reservations from scratch for "now"
  /// (the pre-optimization per-event behavior), counting the rebuild under
  /// `cause`. Static mode keeps each stored slot unless an improvement
  /// (searched in priority order) is strictly earlier; dynamic mode replans
  /// everything in priority order. `reordered` is the dynamic queue index
  /// from which the jobs ahead changed in a re-sort (see collect_starts).
  void full_replan(Time now, obs::Counter cause, std::size_t reordered);

  /// Apply this event's arrivals/completions/over-runs to the persistent
  /// plan without reseating unaffected reservations, or fall back to
  /// full_replan when the plan cannot be patched. `overrun`: some running
  /// job is past its estimate.
  void incremental_replan(Time now, std::size_t reordered, bool overrun);

  /// Grow each over-running job's planned tail to its assumed end at `now`,
  /// as long as the growth fits beside every seat in the plan. False (with
  /// the plan half-grown) if one does not fit: the caller rebuilds.
  bool grow_overruns(Time now);

  /// Reset the plan profile to the running jobs' usage from now
  /// (seed_running_usage); fills planned_runs_.
  void seed_plan(Time now);

  /// One compression round: in priority order, each job moves to a strictly
  /// earlier slot if one exists. Skipped when freed_horizon_ <= now; resets
  /// freed_horizon_ to the old ends of the seats it moved.
  void compression_pass(Time now);

  /// Seat `entry` at its earliest fit from `from` and store the slot.
  void seat(Entry& entry, Time from);

  /// Dynamic mode: seat queue_[first..] in order, each at its earliest fit
  /// from `now`, starting each scan at the floor proven by earlier seats of
  /// this loop and jumping the range the freed-capacity horizon proves
  /// blocked (none for entries at index >= `reordered`). Stops once no
  /// entry left can start before the earliest seat after `now` (the cut
  /// proof in the implementation note) and leaves those entries unseated.
  void seat_all_from_now(std::size_t first, Time now, std::size_t reordered);

  /// True if no entry in queue_[i..] has a start in [now, wake) in the plan
  /// as it stands: none of the suffix's Pareto-minimal shapes fits there.
  bool suffix_waits(std::size_t i, Time now, Time wake);

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
  /// The running job's entry in planned_runs_, or nullptr.
  PlannedRun* planned_run(JobId id);
  std::vector<PlannedRun> completed_runs_;  ///< completed since the last replan
  static constexpr Time kNothingFreed = std::numeric_limits<Time>::min();
  static constexpr Time kUnbounded = std::numeric_limits<Time>::max();
  /// Every interval freed in the plan since the stored reservations were
  /// placed ends at or before this time (see the implementation note).
  Time freed_horizon_ = kUnbounded;

  /// The cut proof's scratch, rebuilt by every seating loop: the Pareto
  /// frontiers of the queue suffixes at its check points. A copy starts
  /// empty, so clone() does not carry it.
  struct Shape {
    Time wcl;
    NodeCount nodes;
  };
  struct SuffixFrontiers {
    std::size_t from = 0;  ///< queue index of the loop's first check point
    /// The frontier of the suffix at check point from + k * kCutStride is
    /// the [begin, end) range points[n - 1 - k] of shapes, n =
    /// points.size(); empty until the loop's first check.
    std::vector<std::pair<std::size_t, std::size_t>> points;
    std::vector<Shape> shapes;
    std::vector<Shape> stair;  ///< the backward pass's running frontier

    SuffixFrontiers() = default;
    SuffixFrontiers(const SuffixFrontiers&) {}
    SuffixFrontiers& operator=(const SuffixFrontiers&) { return *this; }
  };
  SuffixFrontiers frontiers_;
  /// Seats between two checks of the cut proof.
  static constexpr std::size_t kCutStride = 8;
};

}  // namespace psched
