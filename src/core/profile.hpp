#pragma once
// Availability profile: the piecewise-constant "free nodes over time"
// timeline that backfilling schedulers pack jobs into (the 2-D chart of the
// paper's Figures 1-2). This is the substrate under EASY reservations, the
// CPlant starvation-queue head reservation, and both conservative schedulers.
//
// Representation: sorted breakpoints (time, free-from-here). The profile
// starts at `origin` with all nodes free and extends to +infinity with the
// free count of the last breakpoint (which is `capacity` once all usage
// intervals end).
//
// Hot-path design (every backfilling scheduler hits this on every event):
//   * Lookups go through a cursor hint: scheduler scans are monotone in
//     time, so step_index() first probes the step found by the previous
//     lookup and its neighbors before falling back to O(log n) binary
//     search. A monotone pass over the timeline costs amortized O(1) per
//     lookup instead of O(log n).
//   * Mutations coalesce only the steps adjacent to the touched window
//     (range-local), not the whole array.
//   * earliest_fit() is a single forward sliding-window pass over the
//     breakpoints: O(k) in the number of breakpoints scanned, where the
//     pre-optimization implementation restarted the window scan after every
//     blocking step (O(k^2) worst case).
//   * A batch/transaction API lets replanners stage many reservations and
//     pay for one normalization pass at commit.
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

  /// Move the origin forward to `now`, dropping breakpoints strictly before
  /// it. The profile at times >= now is unchanged. No-op if now <= origin().
  /// Incremental replanners use this to slide a persistent profile along
  /// with simulation time instead of rebuilding it.
  void advance_origin(Time now);

  NodeCount capacity() const { return capacity_; }
  Time origin() const { return origin_; }

  /// Subtract `nodes` free nodes over [from, to). Throws std::logic_error if
  /// this would drive any step negative (over-reservation) or if from < origin.
  /// Strong exception safety: a failed add leaves all free counts untouched
  /// (stray zero-width breakpoints may remain; they are semantically inert).
  void add_usage(Time from, Time to, NodeCount nodes);

  /// Exact inverse of add_usage (returns the nodes to the free pool).
  /// Throws std::logic_error if this would exceed capacity anywhere.
  void remove_usage(Time from, Time to, NodeCount nodes);

  // --- batch / transaction API ----------------------------------------------
  //
  // Between begin_batch() and end_batch(), add_usage/remove_usage skip the
  // per-mutation coalescing pass; end_batch() runs one full normalization.
  // Contract:
  //   * begin/end pairs nest; only the outermost end_batch() normalizes.
  //   * All queries (free_at, fits_at, earliest_fit) remain exact inside a
  //     batch — deferred coalescing only leaves redundant breakpoints with
  //     equal adjacent free counts, never wrong free counts.
  //   * breakpoints() may be larger inside a batch than after end_batch().
  //   * Validation and exception guarantees are identical to unbatched mode.
  void begin_batch();
  void end_batch();

  /// Free nodes at instant t (t >= origin).
  NodeCount free_at(Time t) const;

  /// True iff `nodes` are free throughout [start, start+duration).
  bool fits_at(Time start, Time duration, NodeCount nodes) const;

  /// Earliest start >= earliest such that `nodes` are free for `duration`.
  /// Always succeeds (the profile ends with free nodes <= capacity; callers
  /// must ensure nodes <= capacity, else std::invalid_argument).
  Time earliest_fit(Time earliest, Time duration, NodeCount nodes) const;

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

  /// Index of the step covering time t (t >= origin). Probes the cursor
  /// hint first; falls back to binary search. Updates the hint.
  std::size_t step_index(Time t) const;
  /// Ensure a breakpoint exists exactly at t; returns its index.
  std::size_t ensure_breakpoint(Time t);
  /// Merge equal-adjacent steps in the window [lo-1, hi] only.
  void coalesce_range(std::size_t lo, std::size_t hi);
  /// Full-array merge of equal-adjacent steps (used by end_batch).
  void coalesce_all();

  NodeCount capacity_;
  Time origin_;
  std::vector<Step> steps_;
  mutable std::size_t hint_ = 0;  ///< index of the most recently looked-up step
  int batch_depth_ = 0;
  bool batch_dirty_ = false;  ///< a batched mutation deferred its coalesce
};

}  // namespace psched
