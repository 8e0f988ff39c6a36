#pragma once
// Availability profile: the piecewise-constant "free nodes over time"
// timeline that backfilling schedulers pack jobs into (the 2-D chart of the
// paper's Figures 1-2). This is the substrate under EASY / depth-N
// reservations and both conservative schedulers. (CPlant needs none: with
// only running jobs in play its one reservation reduces to integers; see
// cplant_scheduler.hpp.)
//
// Representation: sorted breakpoints (time, free-from-here). The profile
// starts at `origin` with all nodes free and extends to +infinity with the
// free count of the last breakpoint (which is `capacity` once all usage
// intervals end).
//
// Hot-path design (the depth and conservative schedulers hit this on every
// event):
//   * Lookups go through a cursor hint: scheduler scans are monotone in
//     time, so step_index() first probes the step found by the previous
//     lookup and its neighbors before falling back to O(log n) binary
//     search. A monotone pass over the timeline costs amortized O(1) per
//     lookup instead of O(log n).
//   * Mutations coalesce only the steps adjacent to the touched window
//     (range-local), not the whole array.
//   * The slot search is a single forward sliding-window pass over the
//     breakpoints: O(k) in the number of breakpoints scanned, where the
//     pre-optimization implementation restarted the window scan after every
//     blocking step (O(k^2) worst case).
//   * reserve() seats a job in one pass: the scan hands back the winning
//     window's first and last step, and the usage is subtracted there in
//     place. It does not search for the slot again or re-validate a window
//     the scan has just proved feasible, as earliest_fit() followed by
//     add_usage() would. Every scheduler seats through it; earliest_fit()
//     is the const query. A replanner that knows a start range cannot fit
//     passes it as a skip range, which the scan jumps in one lookup.
//   * Running jobs load in bulk: reset(origin, busy) sorts their (end,
//     nodes) intervals once and writes the step vector directly, instead of
//     one add_usage per job.
//   * try_add_usage() is the start-now check and the seat in one call: the
//     fits_at scan, then the subtract on the window it just walked.
//   * Queries take the same path at every depth: a deep plan (10k+
//     reservations) costs a longer walk, not a different algorithm.
//
// The pre-optimization implementation is preserved as
// oracles/reference_profile.hpp (test and bench builds only);
// tests/test_core_profile_diff.cpp checks the two against each other on
// randomized operation sequences.
//
// Thread safety: NONE, including for const queries — free_at, fits_at and
// earliest_fit update the mutable cursor hint. A Profile must not be shared
// across threads without external synchronization; give each worker its own
// instance (as the FST engine does with its per-thread scratch).

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace psched {

class Profile {
 public:
  Profile(NodeCount capacity, Time origin);

  /// Reset to "everything free from origin". Keeps allocated storage, so a
  /// long-lived Profile member is cheaper than constructing a fresh one per
  /// scheduling event.
  void reset(Time origin);

  /// A running job's usage: `nodes` busy from the origin until `end`.
  struct Busy {
    Time end;
    NodeCount nodes;
  };

  /// Reset to origin with every interval in `busy` subtracted: the step
  /// vector reset(origin) followed by add_usage(origin, end, nodes) per
  /// entry leaves, written in one sort. Entries with zero nodes or ending at
  /// or before the origin are skipped. Throws std::invalid_argument for
  /// negative nodes and std::logic_error if the entries need more than
  /// capacity; either leaves the profile reset(origin).
  void reset(Time origin, const std::vector<Busy>& busy);

  /// Move the origin forward to `now`, dropping breakpoints strictly before
  /// it. The profile at times >= now is unchanged. No-op if now <= origin().
  /// Incremental replanners use this to slide a persistent profile along
  /// with simulation time instead of rebuilding it.
  void advance_origin(Time now);

  NodeCount capacity() const { return capacity_; }
  Time origin() const { return origin_; }

  /// Subtract `nodes` free nodes over [from, to). Throws std::logic_error if
  /// this would drive any step negative (over-reservation) or if from < origin.
  /// Validates before it inserts any breakpoint: a failed add leaves the
  /// profile untouched.
  void add_usage(Time from, Time to, NodeCount nodes);

  /// add_usage if fits_at(from, to - from, nodes), in one scan: returns
  /// false, leaving the profile untouched, where that check fails (from <
  /// origin, nodes > capacity, or some step without `nodes` free). Empty
  /// requests (from >= to, nodes == 0) fit and change nothing. Throws
  /// std::invalid_argument for negative nodes.
  bool try_add_usage(Time from, Time to, NodeCount nodes);

  /// Exact inverse of add_usage (returns the nodes to the free pool).
  /// Throws std::logic_error if this would exceed capacity anywhere; a
  /// failed remove leaves the profile untouched.
  void remove_usage(Time from, Time to, NodeCount nodes);

  /// Free nodes at instant t (t >= origin).
  NodeCount free_at(Time t) const;

  /// True iff `nodes` are free throughout [start, start+duration).
  bool fits_at(Time start, Time duration, NodeCount nodes) const;

  /// Earliest start >= earliest such that `nodes` are free for `duration`.
  /// Always succeeds (the profile ends with free nodes <= capacity; callers
  /// must ensure nodes <= capacity, else std::invalid_argument).
  Time earliest_fit(Time earliest, Time duration, NodeCount nodes) const;

  /// Seat a job at its earliest fit: returns s = earliest_fit(earliest,
  /// duration, nodes) and leaves exactly the profile add_usage(s, s +
  /// duration, nodes) would, in one scan. Same exceptions as that pair
  /// (std::invalid_argument for nodes < 0 or nodes > capacity).
  ///
  /// Skip range: a caller that has proven no start in [skip_from, skip_to)
  /// fits (a replanner re-seating a reservation it placed earlier) may pass
  /// that range, and the scan jumps it with one lookup instead of stepping
  /// through it. The range is checked once per candidate window, not per
  /// step. It changes nothing when the proof holds: the slot and the profile
  /// are those of the call without it. If the earliest fit lies inside the
  /// range after all, the job is seated at the earliest fit at or after
  /// skip_to instead. An empty range (skip_from >= skip_to, the default) or
  /// one wholly before `earliest` is ignored; skip_to must leave skip_to +
  /// duration representable. Jumped steps do not count as scanned
  /// (profile.fit_steps).
  Time reserve(Time earliest, Time duration, NodeCount nodes, Time skip_from = 0,
               Time skip_to = 0);

  /// Earliest start t in [from, min(to, clip)) such that `nodes` are free
  /// throughout [t, min(t + duration, clip)), or nullopt if there is none.
  /// A replanner asks this about a job that holds `nodes` over [clip, clip +
  /// duration): with that usage still in the profile, the answer is the
  /// job's earliest fit from `from` once the usage is returned, whenever
  /// that fit lies before min(to, clip) (a window's part past `clip` is then
  /// free). One scan in profile.fit_calls / profile.fit_steps.
  /// std::invalid_argument for nodes > capacity, like earliest_fit.
  std::optional<Time> earliest_fit_before(Time from, Time to, Time duration, NodeCount nodes,
                                          Time clip) const;

  std::size_t breakpoints() const { return steps_.size(); }

  /// Internal consistency: strictly increasing step times starting at
  /// origin, every free count in [0, capacity], and the final step's free
  /// count equal to capacity (usage intervals are finite, so the timeline
  /// always returns to fully free after the last one ends).
  void check_invariants() const;

  std::string debug_string() const;

 private:
  struct Step {
    Time at;         // step applies from this instant
    NodeCount free;  // free nodes in [at, next.at)
  };

  /// A feasible window found by find_fit: it starts at `start`, inside step
  /// `first`, and its last overlapped step is `last`.
  struct Fit {
    Time start;
    std::size_t first;
    std::size_t last;
  };

  /// The forward sliding-window scan behind earliest_fit and reserve; a
  /// candidate start inside [skip_from, skip_to) jumps to skip_to.
  /// Requires 0 < nodes <= capacity, duration > 0 and earliest >= origin.
  Fit find_fit(Time earliest, Time duration, NodeCount nodes, Time skip_from,
               Time skip_to) const;

  /// The steps overlapping [from, to) (origin <= from < to): `first` covers
  /// from and `last` is the last one starting before to, unless some step's
  /// free count leaves [lo, hi]; then `fits` is false and `last` is the
  /// first such step.
  struct Span {
    std::size_t first;
    std::size_t last;
    bool fits;
  };
  Span span(Time from, Time to, NodeCount lo, NodeCount hi) const;

  /// Add `delta` free nodes over [from, to), the steps `window` spans,
  /// splitting steps at from and to and coalescing around the window.
  /// Unchecked: the caller validated the window.
  void shift(Time from, Time to, const Span& window, NodeCount delta);

  /// Index of the step covering time t (t >= origin). Probes the cursor
  /// hint first; falls back to binary search. Updates the hint.
  std::size_t step_index(Time t) const;
  /// Merge equal-adjacent steps in the window [lo-1, hi] only.
  void coalesce_range(std::size_t lo, std::size_t hi);

  NodeCount capacity_;
  Time origin_;
  std::vector<Step> steps_;
  mutable std::size_t hint_ = 0;  ///< index of the most recently looked-up step
};

}  // namespace psched
