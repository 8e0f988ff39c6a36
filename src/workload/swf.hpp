#pragma once
// Standard Workload Format (SWF) version 2 reader/writer — the trace format
// of the Feitelson workload archive and the input format of the paper's
// simulator (section 3.1). Fields we do not model (memory, CPU time, queue,
// partition, dependencies) are written as -1 and ignored on read.
//
// Status semantics (SWF field 11): 1 = completed, 0 = failed, 5 = cancelled
// before start, 2/3/4 = partial executions of a checkpointed job, -1 =
// unknown/missing. Real archive traces mix all of these; only completed (and
// status-less) records describe work the machine actually did, so the reader
// filters on status by default — see SwfReadOptions::accepted_statuses.
// Cancelled/failed records often still carry plausible runtimes, which is why
// ingesting them silently corrupts utilization and fairness numbers.
//
// One ingestion path: read_swf_streaming scans the trace in chunks through
// the line-level parsing core (SwfStreamReader), which rejects malformed
// numeric fields with "<origin>:<line>: ..." messages. `head` = 0 reads the
// whole trace; `head` > 0 keeps only the first `head` arrivals, so peak
// memory is O(head + chunk) instead of O(trace).

#include <iosfwd>
#include <string>
#include <vector>

#include "core/job.hpp"

namespace psched::workload {

struct SwfReadOptions {
  /// Drop records whose runtime or node count is non-positive (failed jobs
  /// in real traces). When false such records throw.
  bool skip_invalid = true;
  /// Use requested processors when the allocated field is missing (<= 0).
  bool fallback_to_requested = true;
  /// When the requested-time (WCL) field is missing, substitute the runtime.
  bool fallback_wcl_to_runtime = true;
  /// Status codes (SWF field 11) to ingest. Default: completed jobs plus the
  /// -1 "unknown" sentinel (traces without status information). Records with
  /// any other status are dropped and counted in
  /// SwfReadResult::filtered_records. An empty list disables status
  /// filtering entirely (every status is accepted).
  std::vector<long long> accepted_statuses = {1, -1};
};

/// How workload.system_size was chosen (see read_swf_streaming's sizing rules).
enum class SwfSizing {
  Explicit,     ///< caller passed system_size > 0
  HeaderNodes,  ///< SWF header MaxNodes won
  HeaderProcs,  ///< SWF header MaxProcs won (SMP traces)
  WidestJob,    ///< header absent/understated; widest ingested job is the floor
  Fallback,     ///< empty trace, no header: sized 1
};

struct SwfReadResult {
  Workload workload;
  std::size_t total_records = 0;
  /// Records dropped as malformed/invalid (see SwfReadOptions::skip_invalid).
  std::size_t skipped_records = 0;
  /// Records dropped by the status filter (accepted_statuses).
  std::size_t filtered_records = 0;

  // Machine-sizing inputs and the decision, so CLIs can show archive-replay
  // users where the node count came from instead of a bare number.
  NodeCount header_max_nodes = 0;  ///< SWF header MaxNodes (0 = absent)
  NodeCount header_max_procs = 0;  ///< SWF header MaxProcs (0 = absent)
  NodeCount widest_job = 0;        ///< widest ingested job (post filtering)
  SwfSizing sizing = SwfSizing::Fallback;

  /// "1524 nodes (SWF header MaxProcs; MaxNodes 320, widest job 1024)" style
  /// one-liner for CLI banners.
  std::string describe_sizing() const;
};

/// Incremental SWF record puller: the line-level parsing core the reader is
/// built on. Pulls records in caller-sized chunks so peak memory is the
/// caller's choice, and carries line numbers so every rejection points at
/// the offending trace line.
///
/// Error discipline: a numeric field too wide for its type throws
/// std::runtime_error("<origin>:<line>: SWF field N out of range: ...");
/// an invalid record with skip_invalid == false throws std::invalid_argument
/// with the same "<origin>:<line>" prefix. A token that is not numeric at
/// all ends the record's field list (matching classic istream extraction),
/// and a line with fewer than 9 parsed fields counts as skipped noise.
class SwfStreamReader {
 public:
  /// The stream must outlive the reader. `origin` labels error messages
  /// (pass the file path when reading from a file).
  explicit SwfStreamReader(std::istream& in, SwfReadOptions options = {},
                           std::string origin = "swf");

  /// Appends up to `max_records` ingested jobs (ids unassigned — normalize
  /// renumbers) to `out`; returns the count appended. 0 means end of stream.
  std::size_t read_chunk(std::vector<Job>& out, std::size_t max_records);
  bool done() const { return done_; }

  // Counters over everything scanned so far; final once done().
  std::size_t total_records() const { return total_records_; }
  std::size_t skipped_records() const { return skipped_records_; }
  std::size_t filtered_records() const { return filtered_records_; }
  NodeCount header_max_nodes() const { return header_max_nodes_; }
  NodeCount header_max_procs() const { return header_max_procs_; }
  NodeCount widest_job() const { return widest_job_; }

 private:
  bool next_job(Job& out);

  std::istream& in_;
  SwfReadOptions options_;
  std::string origin_;
  bool done_ = false;
  std::size_t line_ = 0;  ///< 1-based number of the last line read
  std::size_t total_records_ = 0;
  std::size_t skipped_records_ = 0;
  std::size_t filtered_records_ = 0;
  NodeCount header_max_nodes_ = 0;
  NodeCount header_max_procs_ = 0;
  NodeCount widest_job_ = 0;
};

/// Parse an SWF stream. `system_size` <= 0 derives the machine size as
/// max(MaxNodes, MaxProcs, widest job). Job widths are processor counts (SWF
/// AllocatedProcs), so on SMP traces MaxProcs — not MaxNodes — is the
/// matching unit, and the widest-job floor guards against understated
/// headers. An explicit `system_size` is taken as-is; jobs wider than it make
/// validate() throw.
///
/// `head` = 0 keeps every record. With `head` > 0 only the first `head`
/// arrivals — smallest (submit, ingest order), exactly the prefix a full read
/// followed by workload::head keeps — are retained, bounding peak memory at
/// O(head + chunk), while counters, sizing and widest-job provenance are
/// still computed over the full trace.
SwfReadResult read_swf_streaming(std::istream& in, NodeCount system_size = 0,
                                 const SwfReadOptions& options = {}, std::size_t head = 0,
                                 const std::string& origin = "swf");
SwfReadResult read_swf_file_streaming(const std::string& path, NodeCount system_size = 0,
                                      const SwfReadOptions& options = {}, std::size_t head = 0);

/// Serialize a workload as SWF V2 with a descriptive header.
void write_swf(std::ostream& out, const Workload& workload,
               const std::string& comment = "synthetic CPlant/Ross workload");
void write_swf_file(const std::string& path, const Workload& workload,
                    const std::string& comment = "synthetic CPlant/Ross workload");

}  // namespace psched::workload
