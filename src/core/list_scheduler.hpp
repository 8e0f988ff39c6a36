#pragma once
// Per-node-completion-time list scheduler: the substrate of the paper's
// hybrid fair-start-time metric (section 4.1).
//
// The list scheduler keeps a completion time for each node. To place a job
// needing N nodes it picks the N earliest-available nodes; the job starts at
// the latest of those availability times (never earlier than `earliest`),
// and those nodes become available again at start + runtime. Unlike
// conservative backfilling it can never use "holes" before existing
// assignments; unlike a strict no-backfill queue it does let disjoint node
// sets proceed independently.
//
// Representation: node availability times are run-length compressed into a
// sorted vector of (time, node count) runs. Every operation the FST engine
// performs (occupy a running job's nodes, schedule the next queued job)
// touches whole runs, so the cost per operation is O(runs) — typically the
// number of distinct job end times, which is far below the node count on a
// 1000+ node machine. The seed implementation (one vector entry per node,
// re-sorted with std::sort on every occupy) is preserved as
// reference::ReferenceListScheduler (oracles/reference_profile.hpp) and
// benchmarked side by side in bench/perf_fst.cpp; observable behavior is
// identical.

#include <vector>

#include "core/types.hpp"

namespace psched {

class ListScheduler {
 public:
  /// All `nodes` nodes available at `origin`.
  ListScheduler(NodeCount nodes, Time origin);

  /// Re-initialize to "all nodes available at origin", keeping allocated
  /// storage. The FST hot loop reuses one scratch instance per thread
  /// instead of constructing (and heap-allocating) one per snapshot.
  void reset(Time origin);

  /// Mark `nodes` nodes (the earliest-available ones) busy until `until`.
  /// Used to seed the running jobs of a snapshot. Throws if fewer than
  /// `nodes` nodes exist.
  void occupy(NodeCount nodes, Time until);

  /// Place a job; returns its start time and updates node availability.
  Time schedule(NodeCount nodes, Time duration, Time earliest);

  /// Start time the next schedule() call *would* return, without placing.
  Time peek_start(NodeCount nodes, Time earliest) const;

  NodeCount node_count() const { return total_; }

  /// Earliest availability over all nodes.
  Time earliest_available() const;

 private:
  struct Run {
    Time at;           // these nodes become available at this instant
    NodeCount count;   // number of nodes in the run
  };

  /// Insert `count` nodes available at `t`, merging into an existing run.
  void insert_run(Time t, NodeCount count);

  // Sorted ascending by time; counts sum to total_.
  std::vector<Run> runs_;
  NodeCount total_;
};

}  // namespace psched
