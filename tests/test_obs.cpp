// Observability layer: disarmed instrumentation is inert, armed counters
// accumulate exactly (including under concurrency), the trace export is
// well-formed Chrome trace-event JSON carrying the span hierarchy, and — the
// load-bearing contract — arming changes NO result byte: cells.csv is
// identical and summary.json is identical after stripping the "breakdown"
// block, at --jobs 1 and 4. Deterministic-class counters are additionally
// byte-reproducible across parallelism levels.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/fst.hpp"
#include "obs/clock.hpp"
#include "oracles/arrival_snapshots.hpp"
#include "scenario/campaign.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using obs::Counter;
using scenario::CampaignOptions;
using scenario::CampaignResult;
using scenario::ScenarioSpec;

/// Every test starts and ends disarmed with zeroed state: obs is process-wide
/// and the rest of the suite runs in this process too.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override { obs::reset(); }
};

ScenarioSpec parse(const std::string& text) {
  std::istringstream in(text);
  return scenario::parse_spec(in, "test.spec");
}

std::string csv_of(const CampaignResult& result) {
  std::ostringstream out;
  scenario::write_cells_csv(result, out);
  return out.str();
}

std::string json_of(const CampaignResult& result) {
  std::ostringstream out;
  scenario::write_summary_json(result, out);
  return out.str();
}

/// The documented strip: drop the contiguous "breakdown" block (the lines an
/// armed run adds to summary.json), mirroring the CI leg's
///   sed '/^  "breakdown": \[$/,/^  \],$/d'
std::string strip_breakdown(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  bool dropping = false;
  while (std::getline(in, line)) {
    if (!dropping && line == "  \"breakdown\": [") dropping = true;
    if (!dropping) out << line << '\n';
    if (dropping && line == "  ],") dropping = false;
  }
  return out.str();
}

// --- a tiny JSON validator (structure only, enough to catch truncation,
// --- bad escapes, and trailing commas in the trace writer) ----------------
struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;
  bool ok = true;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\t' ||
                                 text[pos] == '\r'))
      ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  void value() {
    skip_ws();
    if (pos >= text.size()) {
      ok = false;
      return;
    }
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      if (consume('}')) return;
      do {
        if (!string_value()) {
          ok = false;
          return;
        }
        if (!consume(':')) {
          ok = false;
          return;
        }
        value();
        if (!ok) return;
      } while (consume(','));
      if (!consume('}')) ok = false;
    } else if (c == '[') {
      ++pos;
      if (consume(']')) return;
      do {
        value();
        if (!ok) return;
      } while (consume(','));
      if (!consume(']')) ok = false;
    } else if (c == '"') {
      if (!string_value()) ok = false;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      ++pos;
      while (pos < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
              text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' || text[pos] == '-'))
        ++pos;
    } else if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
    } else if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
    } else if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
    } else {
      ok = false;
    }
  }
  bool string_value() {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) return false;
      }
      ++pos;
    }
    if (pos >= text.size()) return false;
    ++pos;  // closing quote
    return true;
  }
};

bool valid_json(const std::string& text) {
  JsonCursor cursor{text};
  cursor.value();
  cursor.skip_ws();
  return cursor.ok && cursor.pos == text.size();
}

const char* kSmokeSpec = R"(
[campaign]
name = obs_smoke
metrics = percent_unfair, avg_wait, policy_percent_unfair

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all, easy, cons.nomax

[seeds]
list = 11, 12
)";

TEST_F(ObsTest, DisarmedInstrumentationIsInert) {
  ASSERT_FALSE(obs::armed());
  obs::count(Counter::kEngineEventsDelivered, 42);
  obs::record_max(Counter::kPoolQueueDepthHighWater, 99);
  { obs::Span span("never-recorded"); }
  EXPECT_EQ(obs::counter_value(Counter::kEngineEventsDelivered), 0u);
  EXPECT_EQ(obs::counter_value(Counter::kPoolQueueDepthHighWater), 0u);
  std::ostringstream trace;
  obs::write_trace_json(trace);
  EXPECT_EQ(trace.str().find("never-recorded"), std::string::npos);
}

TEST_F(ObsTest, SnapshotEntriesCountStoredWaitingEntries) {
  // fst.prefix_entries counts the queue entries the hybrid FST
  // list-schedules: the waiting entries of every arrival's snapshot, as the
  // oracle builds them at the arrival hook. The simulation counts none.
  obs::arm();
  const Workload w = workload::generate_small_workload(5, 120, 32, days(3));
  const SimulationResult r = reference::simulate_with_snapshots(w, sim::EngineConfig{});
  std::uint64_t stored = 0;
  for (const ArrivalSnapshot& snapshot : r.snapshots) stored += snapshot.waiting.size();
  EXPECT_GT(stored, r.snapshots.size());  // some arrival had a job ahead of it
  EXPECT_EQ(obs::counter_value(Counter::kFstPrefixEntries), 0u);
  metrics::hybrid_fairshare_fst(r);
  EXPECT_EQ(obs::counter_value(Counter::kFstPrefixEntries), stored);

  sim::EngineConfig no_snapshots;
  no_snapshots.record_snapshots = false;
  EXPECT_THROW(metrics::hybrid_fairshare_fst(sim::simulate(w, no_snapshots)),
               std::invalid_argument);
  EXPECT_EQ(obs::counter_value(Counter::kFstPrefixEntries), stored);
}

TEST_F(ObsTest, ArmedCountersAccumulateAndGaugesTakeTheMax) {
  obs::arm();
  obs::count(Counter::kEngineEventsDelivered, 2);
  obs::count(Counter::kEngineEventsDelivered, 3);
  obs::record_max(Counter::kFstPeakBatchBytes, 10);
  obs::record_max(Counter::kFstPeakBatchBytes, 7);  // lower: ignored
  EXPECT_EQ(obs::counter_value(Counter::kEngineEventsDelivered), 5u);
  EXPECT_EQ(obs::counter_value(Counter::kFstPeakBatchBytes), 10u);
}

TEST_F(ObsTest, ConcurrentIncrementsAreExact) {
  obs::arm();
  constexpr std::size_t kIters = 20000;
  util::parallel_for(kIters, [](std::size_t) { obs::count(Counter::kFstForks); });
  EXPECT_EQ(obs::counter_value(Counter::kFstForks), kIters);
}

TEST_F(ObsTest, CounterDumpSplitsTheTwoClasses) {
  obs::arm();
  obs::count(Counter::kJournalAppends, 3);          // deterministic class
  obs::count(Counter::kRetryReissues, 2);           // scheduling class
  std::ostringstream out;
  obs::write_counters_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(valid_json(json)) << json;
  const std::size_t det = json.find("\"deterministic\"");
  const std::size_t sched = json.find("\"scheduling\"");
  ASSERT_NE(det, std::string::npos);
  ASSERT_NE(sched, std::string::npos);
  EXPECT_LT(det, json.find("\"journal.appends\": 3"));
  EXPECT_LT(sched, json.find("\"retry.reissues\": 2"));
  EXPECT_LT(json.find("\"journal.appends\""), sched);  // in the right object
}

TEST_F(ObsTest, TraceJsonIsWellFormedAndCarriesTheSpanHierarchy) {
  obs::arm();
  const ScenarioSpec spec = parse(kSmokeSpec);
  CampaignOptions options;
  options.jobs = 2;
  run_campaign(spec, options);

  std::ostringstream out;
  obs::write_trace_json(out);
  const std::string trace = out.str();
  EXPECT_TRUE(valid_json(trace)) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"campaign", "workload-build", "group", "sweep", "cell"})
    EXPECT_NE(trace.find("\"name\": \"" + std::string(span) + "\""), std::string::npos) << span;
  // The campaign span carries the spec name; a cell span carries its policy.
  EXPECT_NE(trace.find("obs_smoke"), std::string::npos);
  EXPECT_NE(trace.find("cplant24.nomax.all"), std::string::npos);
  // The embedded counter dump is live too.
  EXPECT_NE(trace.find("\"counters\""), std::string::npos);
  EXPECT_NE(trace.find("\"engine.events_delivered\""), std::string::npos);
}

TEST_F(ObsTest, SpanArgumentsAreJsonEscaped) {
  obs::arm();
  {
    obs::Span span("escape-check");
    span.set_arg("quote \" backslash \\ newline \n done");
  }
  std::ostringstream out;
  obs::write_trace_json(out);
  const std::string trace = out.str();
  EXPECT_TRUE(valid_json(trace)) << trace;
  EXPECT_NE(trace.find("quote \\\" backslash \\\\ newline \\n done"), std::string::npos);
}

TEST_F(ObsTest, TracedAndUntracedStoresAreByteIdentical) {
  const ScenarioSpec spec = parse(kSmokeSpec);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions options;
    options.jobs = jobs;

    obs::reset();  // disarmed run
    const CampaignResult untraced = run_campaign(spec, options);
    EXPECT_FALSE(untraced.breakdown_enabled);

    obs::reset();
    obs::arm();  // traced run
    const CampaignResult traced = run_campaign(spec, options);
    EXPECT_TRUE(traced.breakdown_enabled);

    EXPECT_EQ(csv_of(untraced), csv_of(traced)) << "jobs " << jobs;
    const std::string untraced_json = json_of(untraced);
    const std::string traced_json = json_of(traced);
    EXPECT_NE(untraced_json, traced_json) << "armed run should add a breakdown";
    EXPECT_EQ(untraced_json, strip_breakdown(traced_json)) << "jobs " << jobs;
    EXPECT_EQ(strip_breakdown(untraced_json), untraced_json)
        << "strip must be a no-op on an untraced summary";
  }
}

TEST_F(ObsTest, DeterministicCountersAreReproducibleAcrossJobs) {
  const ScenarioSpec spec = parse(kSmokeSpec);
  std::map<std::string, std::uint64_t> serial, parallel;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    obs::reset();
    obs::arm();
    CampaignOptions options;
    options.jobs = jobs;
    run_campaign(spec, options);
    auto& slot = jobs == 1 ? serial : parallel;
    for (const obs::CounterValue& counter : obs::counters_snapshot())
      if (counter.deterministic) slot[counter.name] = counter.value;
  }
  EXPECT_EQ(serial, parallel);
  // The run actually exercised the subsystems the catalog claims to cover.
  EXPECT_GT(serial.at("engine.events_delivered"), 0u);
  EXPECT_GT(serial.at("scheduler.replan_full"), 0u);
  // Wait-queue re-sorts (one per fairshare publish per queue, forks
  // included) are part of the reproducible work count.
  EXPECT_GT(serial.at("scheduler.priority_resorts"), 0u);
  EXPECT_GT(serial.at("fst.forks"), 0u);           // policy_* metric in the spec
}

TEST_F(ObsTest, BreakdownRowsCarryPerCellObservability) {
  obs::arm();
  const ScenarioSpec spec = parse(kSmokeSpec);
  CampaignOptions options;
  options.jobs = 2;
  const CampaignResult result = run_campaign(spec, options);
  ASSERT_TRUE(result.breakdown_enabled);
  ASSERT_EQ(result.cells.size(), 6u);  // 3 policies x 2 seeds
  for (const scenario::CellResult& cell : result.cells) {
    SCOPED_TRACE(cell.cell.index);
    EXPECT_TRUE(cell.breakdown.collected);
    EXPECT_GT(cell.breakdown.events_delivered, 0u);
    EXPECT_GT(cell.breakdown.scheduler_invocations, 0u);
    EXPECT_GT(cell.breakdown.sim_makespan_seconds, 0.0);
    EXPECT_GT(cell.breakdown.fst_forks, 0u);  // policy_* metric => FST ran
    EXPECT_GE(cell.breakdown.wall_seconds, 0.0);
  }
  const std::string json = json_of(result);
  EXPECT_NE(json.find("\"breakdown\": ["), std::string::npos);
  EXPECT_NE(json.find("\"provenance\": \"computed\""), std::string::npos);
  EXPECT_NE(json.find("\"fst_peak_batch_bytes\""), std::string::npos);
}

TEST_F(ObsTest, ResetZeroesCountersAndSpans) {
  obs::arm();
  obs::count(Counter::kStoreAtomicWrites, 5);
  { obs::Span span("to-be-cleared"); }
  obs::reset();
  EXPECT_FALSE(obs::armed());
  EXPECT_EQ(obs::counter_value(Counter::kStoreAtomicWrites), 0u);
  std::ostringstream trace;
  obs::write_trace_json(trace);
  EXPECT_EQ(trace.str().find("to-be-cleared"), std::string::npos);
}

}  // namespace
}  // namespace psched
