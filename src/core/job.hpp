#pragma once
// Job model and workload container.
//
// A Job is the 2-D rectangle of the paper's introduction: width = nodes,
// length = the user's wall-clock limit (WCL); `runtime` is what the job
// actually did on the machine. Jobs produced by the 72 h maximum-runtime
// policy (paper section 5.1) carry their original job in `parent`.
//
// A Workload is an immutable VIEW over a shared, frozen job array: copying
// one is O(1) (a pointer pair plus a shared_ptr bump) and truncating one is
// a count, not a copy. This is what makes per-arrival engine forks and the
// policy-knowledge FST affordable at archive scale — a thousand forks share
// one job table instead of each memcpying a prefix of it. All mutation
// (ingestion, transforms, normalization) lives on WorkloadBuilder.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace psched {

struct Job {
  JobId id = kInvalidJob;
  UserId user = 0;
  GroupId group = 0;
  Time submit = 0;   ///< arrival time (seconds since epoch)
  Time runtime = 0;  ///< actual runtime; > 0 for a valid job
  Time wcl = 0;      ///< user-estimated runtime / wall clock limit; > 0
  NodeCount nodes = 1;

  // Segment bookkeeping for maximum-runtime splitting (kInvalidJob == not a
  // segment). Segment 0 keeps the original submit time; segment k+1 is
  // submitted at that time too, or when segment k completes under chained
  // arrival (see sim::SegmentArrival).
  JobId parent = kInvalidJob;
  std::int32_t segment = 0;
  std::int32_t segment_count = 1;

  double proc_seconds() const { return static_cast<double>(nodes) * static_cast<double>(runtime); }
};

/// Validation outcome for a single job; empty string means valid.
std::string validate_job(const Job& job, NodeCount system_size);

/// Read-only view over a contiguous run of jobs. Mirrors the subset of the
/// std::vector<Job> read interface the tree uses, so read sites compile
/// unchanged against `Workload::jobs`.
class JobSpan {
 public:
  using value_type = Job;
  using const_iterator = const Job*;

  JobSpan() = default;
  JobSpan(const Job* data, std::size_t count) : data_(data), count_(count) {}

  const Job* data() const { return data_; }
  const Job* begin() const { return data_; }
  const Job* end() const { return data_ + count_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const Job& operator[](std::size_t index) const { return data_[index]; }
  const Job& at(std::size_t index) const;  ///< throws std::out_of_range
  const Job& front() const { return data_[0]; }
  const Job& back() const { return data_[count_ - 1]; }

 private:
  const Job* data_ = nullptr;
  std::size_t count_ = 0;
};

/// A trace plus the machine it ran on. Invariants (checked by validate()):
/// jobs sorted by submit time, ids equal to span index, every job valid.
///
/// Immutable once constructed: the job array is owned by a shared_ptr and
/// `jobs` is a prefix view into it. Build or edit one via WorkloadBuilder.
class Workload {
 public:
  JobSpan jobs;
  NodeCount system_size = 0;

  Workload() = default;

  /// Freezes `jobs_in` as-is. No sorting or renumbering happens here — use
  /// WorkloadBuilder::normalize() first when the invariants aren't already met.
  Workload(std::vector<Job> jobs_in, NodeCount size);

  /// Prefix view of the first `count` jobs sharing this workload's storage:
  /// a count, not a copy. Throws std::out_of_range if count > jobs.size().
  Workload truncate(std::size_t count) const;

  /// Throws std::invalid_argument describing the first violation, if any.
  void validate() const;

  double total_proc_seconds() const;
  Time earliest_submit() const;  ///< kNoTime when empty
  Time latest_submit() const;    ///< kNoTime when empty

 private:
  std::shared_ptr<const std::vector<Job>> storage_;
};

/// Mutable staging area for producing a Workload: ingestion and transforms
/// append/edit `jobs` freely, then build() freezes the array into an
/// immutable shared Workload (moving the vector — the builder is left empty).
struct WorkloadBuilder {
  std::vector<Job> jobs;
  NodeCount system_size = 0;

  WorkloadBuilder() = default;
  WorkloadBuilder(std::vector<Job> jobs_in, NodeCount size)
      : jobs(std::move(jobs_in)), system_size(size) {}
  /// Copies the view's jobs back into mutable storage for editing.
  explicit WorkloadBuilder(const Workload& workload);

  /// Sorts by (submit, id) and renumbers ids to match indices.
  void normalize();

  Workload build();
};

}  // namespace psched
