#include "workload/swf.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/fault.hpp"
#include "util/retry.hpp"

namespace psched::workload {

namespace {
// SWF field indices (0-based) within an 18-field record.
enum SwfField : std::size_t {
  kJobNumber = 0,
  kSubmit = 1,
  kWait = 2,
  kRuntime = 3,
  kAllocatedProcs = 4,
  kAvgCpu = 5,
  kUsedMemory = 6,
  kRequestedProcs = 7,
  kRequestedTime = 8,
  kRequestedMemory = 9,
  kStatus = 10,
  kUserId = 11,
  kGroupId = 12,
  kExecutable = 13,
  kQueue = 14,
  kPartition = 15,
  kPrecedingJob = 16,
  kThinkTime = 17,
  kFieldCount = 18,
};

/// Records pulled per read_chunk call by read_swf_streaming: big enough to
/// amortize call overhead, small enough that a chunk is noise next to the
/// head-selection buffer.
constexpr std::size_t kIngestChunk = 4096;

bool parse_header_int(const std::string& line, const std::string& key, long long& out) {
  const auto pos = line.find(key);
  if (pos == std::string::npos) return false;
  const auto colon = line.find(':', pos);
  if (colon == std::string::npos) return false;
  try {
    out = std::stoll(line.substr(colon + 1));
    return true;
  } catch (...) {
    return false;
  }
}

/// Tail of every read: counters, machine sizing, normalize+validate.
SwfReadResult finish_read(const SwfStreamReader& reader, WorkloadBuilder&& builder,
                          NodeCount system_size) {
  SwfReadResult result;
  result.total_records = reader.total_records();
  result.skipped_records = reader.skipped_records();
  result.filtered_records = reader.filtered_records();

  const NodeCount header_nodes = reader.header_max_nodes();
  const NodeCount header_procs = reader.header_max_procs();
  const NodeCount widest = reader.widest_job();
  result.header_max_nodes = header_nodes;
  result.header_max_procs = header_procs;
  result.widest_job = widest;
  // Job widths come from the AllocatedProcs/RequestedProcs fields, i.e. they
  // are PROCESSOR counts, so the machine must be sized in the same unit: on
  // SMP traces (MaxProcs >> MaxNodes) sizing by MaxNodes would reject — or
  // silently overload — jobs wider than the node count. The widest ingested
  // job is additionally a floor, so an understated or truncated header can
  // never make validate() reject work the traced machine actually ran.
  const NodeCount header_size = std::max(header_nodes, header_procs);
  if (system_size > 0) {
    builder.system_size = system_size;
    result.sizing = SwfSizing::Explicit;
  } else if (header_size >= widest && header_size > 0) {
    builder.system_size = header_size;
    result.sizing =
        header_procs > header_nodes ? SwfSizing::HeaderProcs : SwfSizing::HeaderNodes;
  } else if (widest > 0) {
    builder.system_size = widest;
    result.sizing = SwfSizing::WidestJob;
  } else {
    builder.system_size = 1;
    result.sizing = SwfSizing::Fallback;
  }
  builder.normalize();
  result.workload = builder.build();
  result.workload.validate();
  return result;
}
}  // namespace

SwfStreamReader::SwfStreamReader(std::istream& in, SwfReadOptions options, std::string origin)
    : in_(in), options_(std::move(options)), origin_(std::move(origin)) {}

bool SwfStreamReader::next_job(Job& out) {
  std::string line;
  while (std::getline(in_, line)) {
    ++line_;
    // A transient injected read failure retries; a permanent one surfaces
    // with the trace position so the operator can see how far ingestion got.
    const int read_err = util::retry_io([] { return PSCHED_FAULT("swf.read.line"); });
    if (read_err != 0)
      throw std::runtime_error(origin_ + ":" + std::to_string(line_) +
                               ": read failed: " + std::strerror(read_err));
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF traces
    if (line.empty()) continue;
    if (line[0] == ';') {
      long long value = 0;
      if (parse_header_int(line, "MaxNodes", value))
        header_max_nodes_ = std::max(header_max_nodes_, static_cast<NodeCount>(value));
      else if (parse_header_int(line, "MaxProcs", value))
        header_max_procs_ = std::max(header_max_procs_, static_cast<NodeCount>(value));
      continue;
    }

    std::array<long long, kFieldCount> f{};
    f.fill(-1);
    std::size_t n = 0;
    const char* cursor = line.c_str();
    const char* const end = cursor + line.size();
    while (n < kFieldCount) {
      while (cursor < end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
      if (cursor >= end) break;
      const char* token = cursor;
      while (cursor < end && *cursor != ' ' && *cursor != '\t') ++cursor;
      long long value = 0;
      const auto parsed = std::from_chars(token, cursor, value);
      if (parsed.ec == std::errc::result_out_of_range)
        throw std::runtime_error(origin_ + ":" + std::to_string(line_) + ": SWF field " +
                                 std::to_string(n + 1) + " out of range: '" +
                                 std::string(token, cursor) + "'");
      if (parsed.ec != std::errc()) break;  // non-numeric token ends the record
      f[n++] = value;
      if (parsed.ptr != cursor) break;  // numeric prefix + garbage: keep it, then stop
    }
    if (n < kRequestedTime + 1) {
      // Too few fields to be a record; count as skipped noise.
      ++total_records_;
      ++skipped_records_;
      continue;
    }
    ++total_records_;

    // Status filter first: a cancelled/failed record is not malformed, it
    // describes work that never (fully) ran, so it must not fall through to
    // the invalid-record accounting below.
    if (!options_.accepted_statuses.empty() &&
        std::find(options_.accepted_statuses.begin(), options_.accepted_statuses.end(),
                  f[kStatus]) == options_.accepted_statuses.end()) {
      ++filtered_records_;
      continue;
    }

    Job job;
    job.submit = static_cast<Time>(std::max<long long>(0, f[kSubmit]));
    job.runtime = static_cast<Time>(f[kRuntime]);
    long long procs = f[kAllocatedProcs];
    if (procs <= 0 && options_.fallback_to_requested) procs = f[kRequestedProcs];
    job.nodes = static_cast<NodeCount>(procs);
    job.wcl = static_cast<Time>(f[kRequestedTime]);
    if (job.wcl <= 0 && options_.fallback_wcl_to_runtime) job.wcl = job.runtime;
    job.user = static_cast<UserId>(std::max<long long>(0, f[kUserId]));
    job.group = static_cast<GroupId>(std::max<long long>(0, f[kGroupId]));

    if (job.runtime <= 0 || job.nodes <= 0 || job.wcl <= 0) {
      if (options_.skip_invalid) {
        ++skipped_records_;
        continue;
      }
      throw std::invalid_argument(origin_ + ":" + std::to_string(line_) +
                                  ": invalid record: " + line);
    }
    widest_job_ = std::max(widest_job_, job.nodes);
    out = job;
    return true;
  }
  done_ = true;
  return false;
}

std::size_t SwfStreamReader::read_chunk(std::vector<Job>& out, std::size_t max_records) {
  std::size_t appended = 0;
  Job job;
  while (appended < max_records && next_job(job)) {
    out.push_back(job);
    ++appended;
  }
  return appended;
}

SwfReadResult read_swf_streaming(std::istream& in, NodeCount system_size,
                                 const SwfReadOptions& options, std::size_t head,
                                 const std::string& origin) {
  SwfStreamReader reader(in, options, origin);
  WorkloadBuilder builder;
  if (head == 0) {
    while (reader.read_chunk(builder.jobs, kIngestChunk) > 0) {
    }
  } else {
    // Keep the `head` smallest records under (submit, ingest order) — the
    // exact prefix a full read's stable normalize + head truncation keeps —
    // in a max-heap, so memory stays O(head + chunk) over any trace size.
    struct Entry {
      Time submit;
      std::size_t seq;
      Job job;
    };
    const auto earlier = [](const Entry& a, const Entry& b) {
      return a.submit != b.submit ? a.submit < b.submit : a.seq < b.seq;
    };
    std::vector<Entry> heap;
    heap.reserve(head + 1);
    std::vector<Job> chunk;
    chunk.reserve(kIngestChunk);
    std::size_t seq = 0;
    for (;;) {
      chunk.clear();
      if (reader.read_chunk(chunk, kIngestChunk) == 0) break;
      for (const Job& job : chunk) {
        heap.push_back(Entry{job.submit, seq++, job});
        std::push_heap(heap.begin(), heap.end(), earlier);
        if (heap.size() > head) {
          std::pop_heap(heap.begin(), heap.end(), earlier);
          heap.pop_back();
        }
      }
    }
    std::sort(heap.begin(), heap.end(), earlier);
    builder.jobs.reserve(heap.size());
    for (const Entry& entry : heap) builder.jobs.push_back(entry.job);
  }
  return finish_read(reader, std::move(builder), system_size);
}

std::string SwfReadResult::describe_sizing() const {
  std::string out = std::to_string(workload.system_size) + " nodes (";
  switch (sizing) {
    case SwfSizing::Explicit:
      out += "explicit --system-size";
      break;
    case SwfSizing::HeaderNodes:
      out += "SWF header MaxNodes";
      break;
    case SwfSizing::HeaderProcs:
      out += "SWF header MaxProcs";
      break;
    case SwfSizing::WidestJob:
      out += "widest job; header absent or understated";
      break;
    case SwfSizing::Fallback:
      out += "empty trace, no header";
      break;
  }
  out += "; MaxNodes " + std::to_string(header_max_nodes) + ", MaxProcs " +
         std::to_string(header_max_procs) + ", widest job " + std::to_string(widest_job) + ")";
  return out;
}

SwfReadResult read_swf_file_streaming(const std::string& path, NodeCount system_size,
                                      const SwfReadOptions& options, std::size_t head) {
  std::ifstream in(path);
  const int open_err = util::retry_io([&]() -> int {
    if (const int injected = PSCHED_FAULT("swf.open")) return injected;
    return in ? 0 : (errno != 0 ? errno : ENOENT);
  });
  if (open_err != 0)
    throw std::runtime_error("read_swf_file_streaming: cannot open " + path + ": " +
                             std::strerror(open_err));
  return read_swf_streaming(in, system_size, options, head, path);
}

void write_swf(std::ostream& out, const Workload& workload, const std::string& comment) {
  out << "; SWF V2 trace written by cplant-sched\n";
  out << "; Comment: " << comment << '\n';
  out << "; MaxNodes: " << workload.system_size << '\n';
  out << "; MaxProcs: " << workload.system_size << '\n';
  out << "; MaxJobs: " << workload.jobs.size() << '\n';
  out << "; Note: unused SWF fields are -1\n";
  for (const Job& job : workload.jobs) {
    out << job.id + 1       // SWF job numbers are 1-based
        << ' ' << job.submit
        << ' ' << -1        // wait time: a scheduling outcome, not trace data
        << ' ' << job.runtime
        << ' ' << job.nodes
        << ' ' << -1 << ' ' << -1  // avg cpu, used memory
        << ' ' << job.nodes
        << ' ' << job.wcl
        << ' ' << -1        // requested memory
        << ' ' << 1         // status: completed
        << ' ' << job.user
        << ' ' << job.group
        << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1 << '\n';
  }
}

void write_swf_file(const std::string& path, const Workload& workload, const std::string& comment) {
  // psched-lint: allow(raw-file-write): trace export utility, not a campaign
  // results store — the caller owns the path and durability expectations
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_swf_file: cannot open " + path);
  write_swf(out, workload, comment);
}

}  // namespace psched::workload
