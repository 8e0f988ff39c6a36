#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "test_helpers.hpp"
#include "workload/generator.hpp"
#include "workload/transform.hpp"

namespace psched::workload {
namespace {

/// Field-by-field workload equality.
void expect_same_jobs(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.system_size, b.system_size);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id) << "job " << i;
    EXPECT_EQ(a.jobs[i].submit, b.jobs[i].submit) << "job " << i;
    EXPECT_EQ(a.jobs[i].runtime, b.jobs[i].runtime) << "job " << i;
    EXPECT_EQ(a.jobs[i].wcl, b.jobs[i].wcl) << "job " << i;
    EXPECT_EQ(a.jobs[i].nodes, b.jobs[i].nodes) << "job " << i;
    EXPECT_EQ(a.jobs[i].user, b.jobs[i].user) << "job " << i;
    EXPECT_EQ(a.jobs[i].group, b.jobs[i].group) << "job " << i;
  }
}

SwfReadResult read_text(const std::string& text) {
  std::istringstream in(text);
  return read_swf_streaming(in);
}

TEST(Swf, ParsesMinimalRecord) {
  std::istringstream in(
      "; MaxNodes: 32\n"
      "1 100 -1 3600 8 -1 -1 8 7200 -1 1 3 2 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  ASSERT_EQ(result.workload.jobs.size(), 1u);
  const Job& job = result.workload.jobs[0];
  EXPECT_EQ(job.submit, 100);
  EXPECT_EQ(job.runtime, 3600);
  EXPECT_EQ(job.nodes, 8);
  EXPECT_EQ(job.wcl, 7200);
  EXPECT_EQ(job.user, 3);
  EXPECT_EQ(job.group, 2);
  EXPECT_EQ(result.workload.system_size, 32);
}

TEST(Swf, FallsBackToRequestedProcs) {
  std::istringstream in("1 0 -1 100 -1 -1 -1 16 200 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  ASSERT_EQ(result.workload.jobs.size(), 1u);
  EXPECT_EQ(result.workload.jobs[0].nodes, 16);
}

TEST(Swf, FallsBackWclToRuntime) {
  std::istringstream in("1 0 -1 100 4 -1 -1 4 -1 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  ASSERT_EQ(result.workload.jobs.size(), 1u);
  EXPECT_EQ(result.workload.jobs[0].wcl, 100);
}

TEST(Swf, SkipsInvalidRecordsByDefault) {
  // Status says completed, but the runtime is missing: malformed, so it hits
  // the skip_invalid path (status-0 records are filtered before this check —
  // see FilteredRecordsAreNotCountedAsInvalid).
  std::istringstream in(
      "1 0 -1 -1 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n"   // completed but runtime -1
      "2 5 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  EXPECT_EQ(result.total_records, 2u);
  EXPECT_EQ(result.skipped_records, 1u);
  EXPECT_EQ(result.workload.jobs.size(), 1u);
}

TEST(Swf, StrictModeThrowsOnInvalid) {
  std::istringstream in("1 0 -1 -1 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n");
  SwfReadOptions options;
  options.skip_invalid = false;
  EXPECT_THROW(read_swf_streaming(in, 0, options), std::invalid_argument);
}

TEST(Swf, FiltersNonCompletedStatusesByDefault) {
  // A trace mixing every archive status: completed (1), failed (0),
  // cancelled (5), partial (2), and unknown (-1). All records carry
  // plausible runtimes — exactly the shape that used to be silently
  // ingested as completed work.
  std::istringstream in(
      "1 0 -1 100 4 -1 -1 4 200 -1 1 0 0 -1 -1 -1 -1 -1\n"    // completed
      "2 10 -1 50 4 -1 -1 4 200 -1 0 0 0 -1 -1 -1 -1 -1\n"    // failed
      "3 20 -1 30 4 -1 -1 4 200 -1 5 0 0 -1 -1 -1 -1 -1\n"    // cancelled
      "4 30 -1 40 4 -1 -1 4 200 -1 2 0 0 -1 -1 -1 -1 -1\n"    // partial
      "5 40 -1 60 4 -1 -1 4 200 -1 -1 0 0 -1 -1 -1 -1 -1\n")  // unknown
      ;
  const SwfReadResult result = read_swf_streaming(in);
  EXPECT_EQ(result.total_records, 5u);
  EXPECT_EQ(result.filtered_records, 3u);  // failed, cancelled, partial
  EXPECT_EQ(result.skipped_records, 0u);
  ASSERT_EQ(result.workload.jobs.size(), 2u);  // completed + unknown
  EXPECT_EQ(result.workload.jobs[0].runtime, 100);
  EXPECT_EQ(result.workload.jobs[1].runtime, 60);
}

TEST(Swf, AcceptedStatusesAreConfigurable) {
  const std::string trace =
      "1 0 -1 100 4 -1 -1 4 200 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "2 10 -1 50 4 -1 -1 4 200 -1 5 0 0 -1 -1 -1 -1 -1\n";
  SwfReadOptions options;
  options.accepted_statuses = {1, 5};
  std::istringstream accept_cancelled(trace);
  const SwfReadResult widened = read_swf_streaming(accept_cancelled, 0, options);
  EXPECT_EQ(widened.workload.jobs.size(), 2u);
  EXPECT_EQ(widened.filtered_records, 0u);

  options.accepted_statuses.clear();  // empty list disables the filter
  std::istringstream accept_all(trace);
  const SwfReadResult unfiltered = read_swf_streaming(accept_all, 0, options);
  EXPECT_EQ(unfiltered.workload.jobs.size(), 2u);
  EXPECT_EQ(unfiltered.filtered_records, 0u);
}

TEST(Swf, FilteredRecordsAreNotCountedAsInvalid) {
  // A cancelled record with a missing runtime is filtered (by status), not
  // skipped (as malformed) — and must not throw in strict mode either.
  std::istringstream in("1 0 -1 -1 4 -1 -1 4 200 -1 5 0 0 -1 -1 -1 -1 -1\n");
  SwfReadOptions options;
  options.skip_invalid = false;  // strict: invalid records would throw
  const SwfReadResult result = read_swf_streaming(in, 8, options);
  EXPECT_EQ(result.filtered_records, 1u);
  EXPECT_EQ(result.skipped_records, 0u);
  EXPECT_TRUE(result.workload.jobs.empty());
}

TEST(Swf, HeaderSizesMachineInProcessorUnits) {
  // SMP trace: 128 nodes x 4 cores. Job widths are processor counts
  // (AllocatedProcs), so the machine must be sized by MaxProcs, not
  // MaxNodes — otherwise a 512-proc machine is modeled as 128 units while
  // jobs still ask for up to 512.
  std::istringstream in(
      "; MaxNodes: 128\n"
      "; MaxProcs: 512\n"
      "1 0 -1 100 4 -1 -1 4 200 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  EXPECT_EQ(result.workload.system_size, 512);
  // The sizing decision is reported, not just applied (CLIs surface it).
  EXPECT_EQ(result.sizing, SwfSizing::HeaderProcs);
  EXPECT_EQ(result.header_max_nodes, 128);
  EXPECT_EQ(result.header_max_procs, 512);
  EXPECT_EQ(result.widest_job, 4);
  EXPECT_EQ(result.describe_sizing(),
            "512 nodes (SWF header MaxProcs; MaxNodes 128, MaxProcs 512, widest job 4)");
}

TEST(Swf, JobWiderThanMaxNodesIngestsOnSmpTrace) {
  // Regression: sizing by MaxNodes made any job allocating more processors
  // than the node count throw in Workload::validate(). The 256-proc job
  // below ran on the traced 128x4 machine and must ingest cleanly.
  std::istringstream in(
      "; MaxNodes: 128\n"
      "; MaxProcs: 512\n"
      "1 0 -1 100 256 -1 -1 256 200 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  ASSERT_EQ(result.workload.jobs.size(), 1u);
  EXPECT_EQ(result.workload.jobs[0].nodes, 256);
  EXPECT_EQ(result.workload.system_size, 512);
}

TEST(Swf, WidestJobLiftsUndersizedHeader) {
  // A header understating the machine (here MaxNodes with no MaxProcs on
  // what was really an SMP trace) is clamped up to the widest ingested job
  // instead of rejecting it.
  std::istringstream in(
      "; MaxNodes: 16\n"
      "1 0 -1 100 24 -1 -1 24 100 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  ASSERT_EQ(result.workload.jobs.size(), 1u);
  EXPECT_EQ(result.workload.system_size, 24);
  EXPECT_EQ(result.sizing, SwfSizing::WidestJob);
  EXPECT_EQ(result.widest_job, 24);
}

TEST(Swf, HeaderFallsBackToMaxProcsWithoutMaxNodes) {
  std::istringstream in(
      "; MaxProcs: 256\n"
      "1 0 -1 100 4 -1 -1 4 200 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  EXPECT_EQ(result.workload.system_size, 256);
}

TEST(Swf, SystemSizeFromWidestJobWithoutHeader) {
  std::istringstream in(
      "1 0 -1 100 24 -1 -1 24 100 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "2 5 -1 100 8 -1 -1 8 100 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  EXPECT_EQ(result.workload.system_size, 24);
}

TEST(Swf, ExplicitSystemSizeWins) {
  std::istringstream in("1 0 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in, /*system_size=*/512);
  EXPECT_EQ(result.workload.system_size, 512);
  EXPECT_EQ(result.sizing, SwfSizing::Explicit);
}

TEST(Swf, SortsUnorderedRecords) {
  std::istringstream in(
      "1 500 -1 10 1 -1 -1 1 10 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "2 100 -1 10 1 -1 -1 1 10 -1 1 0 0 -1 -1 -1 -1 -1\n");
  const SwfReadResult result = read_swf_streaming(in);
  EXPECT_EQ(result.workload.jobs[0].submit, 100);
  EXPECT_EQ(result.workload.jobs[1].submit, 500);
}

TEST(Swf, RoundTripPreservesJobs) {
  const Workload original = generate_small_workload(5, 120, 64, days(3));
  std::ostringstream out;
  write_swf(out, original, "round trip test");
  std::istringstream in(out.str());
  const SwfReadResult reread = read_swf_streaming(in);
  ASSERT_EQ(reread.workload.jobs.size(), original.jobs.size());
  EXPECT_EQ(reread.workload.system_size, original.system_size);
  EXPECT_EQ(reread.skipped_records, 0u);
  for (std::size_t i = 0; i < original.jobs.size(); ++i) {
    const Job& a = original.jobs[i];
    const Job& b = reread.workload.jobs[i];
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.wcl, b.wcl);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.group, b.group);
  }
}

TEST(Swf, RoundTripSurvivesForeignNonCompletedRecords) {
  // A written trace spliced into a larger archive file with failed/cancelled
  // records round-trips to exactly the original workload: the status filter
  // drops the foreign records, the writer's own records all carry status 1.
  const Workload original = generate_small_workload(4, 60, 32, days(2));
  std::ostringstream out;
  write_swf(out, original, "status filter round trip");
  out << "9001 0 -1 500 4 -1 -1 4 600 -1 0 1 1 -1 -1 -1 -1 -1\n"   // failed
      << "9002 0 -1 500 4 -1 -1 4 600 -1 5 1 1 -1 -1 -1 -1 -1\n";  // cancelled
  std::istringstream in(out.str());
  const SwfReadResult reread = read_swf_streaming(in);
  EXPECT_EQ(reread.total_records, original.jobs.size() + 2);
  EXPECT_EQ(reread.filtered_records, 2u);
  ASSERT_EQ(reread.workload.jobs.size(), original.jobs.size());
  EXPECT_EQ(reread.workload.system_size, original.system_size);
  for (std::size_t i = 0; i < original.jobs.size(); ++i) {
    const Job& a = original.jobs[i];
    const Job& b = reread.workload.jobs[i];
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.wcl, b.wcl);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.group, b.group);
  }
}

TEST(Swf, RoundTripThroughWclFallback) {
  // A record with no requested time takes wcl = runtime on first read; once
  // written back out, the materialized wcl must survive further round trips.
  std::istringstream archive(
      "; MaxNodes: 16\n"
      "1 50 -1 300 8 -1 -1 8 -1 -1 1 2 3 -1 -1 -1 -1 -1\n");
  const SwfReadResult first = read_swf_streaming(archive);
  ASSERT_EQ(first.workload.jobs.size(), 1u);
  EXPECT_EQ(first.workload.jobs[0].wcl, 300);  // fallback applied

  std::ostringstream out;
  write_swf(out, first.workload, "wcl fallback round trip");
  std::istringstream in(out.str());
  const SwfReadResult second = read_swf_streaming(in);
  ASSERT_EQ(second.workload.jobs.size(), 1u);
  const Job& a = first.workload.jobs[0];
  const Job& b = second.workload.jobs[0];
  EXPECT_EQ(a.submit, b.submit);
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.wcl, b.wcl);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(second.workload.system_size, first.workload.system_size);
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW(read_swf_file_streaming("/nonexistent/path.swf"), std::runtime_error);
}

TEST(Swf, EmptyStreamYieldsEmptyWorkload) {
  std::istringstream in("; just a comment\n\n");
  const SwfReadResult result = read_swf_streaming(in, 8);
  EXPECT_TRUE(result.workload.jobs.empty());
  EXPECT_EQ(result.workload.system_size, 8);
}

// ---------------------------------------------------------------------------
// Robustness battery: hostile archive shapes.

TEST(SwfRobustness, CrlfTracesParseIdentically) {
  // A trace saved on Windows: every line — header, blank, records — ends in
  // \r\n. The \r must not leak into the last field or make blank lines count.
  const SwfReadResult result = read_text(
      "; MaxNodes: 32\r\n"
      "\r\n"
      "1 100 -1 3600 8 -1 -1 8 7200 -1 1 3 2 -1 -1 -1 -1 -1\r\n"
      "2 200 -1 60 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1\r\n");
  EXPECT_EQ(result.total_records, 2u);
  EXPECT_EQ(result.skipped_records, 0u);
  ASSERT_EQ(result.workload.jobs.size(), 2u);
  EXPECT_EQ(result.workload.jobs[1].group, 1);  // last field intact, no '\r'
  EXPECT_EQ(result.workload.system_size, 32);
}

TEST(SwfRobustness, InterleavedCommentsAndBlanksAreNotRecords) {
  const SwfReadResult result = read_text(
      "; UnixStartTime: 0\n"
      "1 10 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "\n"
      "; mid-trace annotation\n"
      "2 20 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "\n"
      "; MaxProcs: 64\n"
      "3 30 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n");
  EXPECT_EQ(result.total_records, 3u);
  EXPECT_EQ(result.skipped_records, 0u);
  ASSERT_EQ(result.workload.jobs.size(), 3u);
  // Headers are honored wherever they appear in the stream.
  EXPECT_EQ(result.workload.system_size, 64);
}

TEST(SwfRobustness, OutOfOrderSubmitsAreNormalized) {
  // Archive traces are not reliably submit-sorted. The reader must deliver
  // a normalized workload: sorted by submit, ties in ingest order, ids
  // renumbered to match positions.
  const SwfReadResult result = read_text(
      "1 500 -1 10 1 -1 -1 1 10 -1 1 7 0 -1 -1 -1 -1 -1\n"
      "2 100 -1 20 1 -1 -1 1 20 -1 1 8 0 -1 -1 -1 -1 -1\n"
      "3 100 -1 30 1 -1 -1 1 30 -1 1 9 0 -1 -1 -1 -1 -1\n"
      "4 50 -1 40 1 -1 -1 1 40 -1 1 6 0 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(result.workload.jobs.size(), 4u);
  const Time expected_submit[] = {50, 100, 100, 500};
  const UserId expected_user[] = {6, 8, 9, 7};  // stable tie at submit=100
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.workload.jobs[i].id, static_cast<JobId>(i)) << "job " << i;
    EXPECT_EQ(result.workload.jobs[i].submit, expected_submit[i]) << "job " << i;
    EXPECT_EQ(result.workload.jobs[i].user, expected_user[i]) << "job " << i;
  }
}

TEST(SwfRobustness, OversizedFieldRejectsWithLineNumber) {
  // A submit field wider than 64 bits is corruption, not data — the reader
  // must refuse with the offending line number, never silently clamp.
  const std::string text =
      "; MaxNodes: 8\n"
      "1 10 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "2 99999999999999999999 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n";
  std::istringstream in(text);
  try {
    read_swf_streaming(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("swf:3: SWF field 2 out of range"),
              std::string::npos)
        << error.what();
  }
}

TEST(SwfRobustness, StrictInvalidRecordCarriesLineNumber) {
  const std::string text =
      "; comment\n"
      "1 10 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "\n"
      "2 20 -1 -1 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n";  // runtime missing
  SwfReadOptions options;
  options.skip_invalid = false;
  std::istringstream in(text);
  try {
    read_swf_streaming(in, 0, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("swf:4: invalid record"), std::string::npos)
        << error.what();
  }
}

TEST(SwfRobustness, FileReadersPrefixErrorsWithPath) {
  const std::string path = testing::TempDir() + "psched_swf_badfield.swf";
  {
    std::ofstream out(path);
    out << "1 99999999999999999999 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n";
  }
  try {
    read_swf_file_streaming(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path + ":1:"), std::string::npos) << error.what();
  }
  std::remove(path.c_str());
}

TEST(SwfRobustness, StreamingMatchesEagerOnGeneratedTrace) {
  // A multi-chunk trace (several thousand records) through the full
  // write -> read loop comes back job for job.
  const Workload original = generate_small_workload(21, 3000, 128, days(30));
  std::ostringstream out;
  write_swf(out, original, "streaming parity");
  const SwfReadResult reread = read_text(out.str());
  EXPECT_EQ(reread.total_records, original.jobs.size());
  expect_same_jobs(reread.workload, original);
}

TEST(SwfRobustness, StreamingHeadMatchesEagerHeadPrefix) {
  // The in-scan head cap keeps the N earliest (submit, ingest-order)
  // records in O(head) memory; it must pick the exact prefix a full read's
  // normalize + head() truncation picks, including across submit ties.
  std::ostringstream out;
  out << "; MaxNodes: 64\n";
  // 200 records with heavily duplicated submits, written in reverse order.
  for (int i = 199; i >= 0; --i)
    out << (i + 1) << ' ' << (i % 13) * 100 << " -1 " << (60 + i) << " 2 -1 -1 2 "
        << (120 + i) << " -1 1 " << i % 7 << " 0 -1 -1 -1 -1 -1\n";
  const std::string text = out.str();

  std::istringstream full_in(text);
  const SwfReadResult full = read_swf_streaming(full_in);
  for (const std::size_t head : {std::size_t{1}, std::size_t{57}, std::size_t{200},
                                 std::size_t{500}}) {
    std::istringstream streaming_in(text);
    const SwfReadResult streamed = read_swf_streaming(streaming_in, 0, {}, head);
    expect_same_jobs(streamed.workload,
                     workload::head(full.workload, std::min(head, full.workload.jobs.size())));
    // Counters and sizing describe the whole trace either way — the head
    // cap bounds memory, it does not hide records from provenance.
    EXPECT_EQ(streamed.total_records, full.total_records);
    EXPECT_EQ(streamed.widest_job, full.widest_job);
    EXPECT_EQ(streamed.describe_sizing(), full.describe_sizing());
  }
}

TEST(SwfStreamReaderTest, ChunkedPullsTrackLinesAndCompletion) {
  std::istringstream in(
      "; MaxNodes: 8\n"
      "1 10 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "2 20 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n"
      "3 30 -1 100 4 -1 -1 4 100 -1 1 0 0 -1 -1 -1 -1 -1\n");
  SwfStreamReader reader(in);
  std::vector<Job> jobs;
  EXPECT_EQ(reader.read_chunk(jobs, 2), 2u);  // caller-sized chunk
  EXPECT_FALSE(reader.done());
  EXPECT_EQ(jobs.size(), 2u);
  EXPECT_EQ(reader.read_chunk(jobs, 2), 1u);  // trailing partial chunk
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(reader.read_chunk(jobs, 2), 0u);  // drained: stays done, appends nothing
  EXPECT_EQ(jobs.size(), 3u);
  EXPECT_EQ(reader.total_records(), 3u);
}

}  // namespace
}  // namespace psched::workload
