// Scenario spec parsing: the error contract (unknown keys/sections rejected
// with line numbers, never silently ignored), defaulting, and grid expansion
// with canonical-key dedup.

#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scenario/campaign.hpp"
#include "scenario/journal.hpp"

namespace psched::scenario {
namespace {

ScenarioSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_spec(in, "test.spec");
}

/// Expect a SpecError whose message contains every given fragment.
template <typename... Fragments>
void expect_error(const std::string& text, const Fragments&... fragments) {
  try {
    parse(text);
    FAIL() << "expected SpecError, spec parsed fine";
  } catch (const SpecError& error) {
    const std::string what = error.what();
    for (const std::string& fragment : {std::string(fragments)...})
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
  }
}

const char* kMinimal = R"(
[campaign]
name = minimal
metrics = percent_unfair

[policies]
names = cplant24.nomax.all
)";

TEST(ScenarioSpec, MinimalSpecGetsDefaults) {
  const ScenarioSpec spec = parse(kMinimal);
  EXPECT_EQ(spec.name, "minimal");
  EXPECT_EQ(spec.workload.source, WorkloadSpec::Source::Ross);
  EXPECT_EQ(spec.workload.seed, 20021201u);
  EXPECT_DOUBLE_EQ(spec.workload.scale, 1.0);
  EXPECT_EQ(spec.tolerance, hours(24));
  EXPECT_DOUBLE_EQ(spec.decay, 0.9);
  EXPECT_EQ(spec.wcl_enforcement, sim::WclEnforcement::Never);
  EXPECT_EQ(spec.effective_seeds(), std::vector<std::uint64_t>{20021201u});
  EXPECT_EQ(expand_campaign(spec).expanded_cells, 1u);  // no grid axes
}

TEST(ScenarioSpec, UnknownKeyRejectedWithLineNumber) {
  // The bad key sits on line 4 of this literal (leading newline = line 1).
  expect_error(R"(
[campaign]
name = x
rescale_load = 1.2
metrics = percent_unfair

[policies]
names = fcfs
)",
               "test.spec:4", "unknown key 'rescale_load'", "[campaign]");
}

TEST(ScenarioSpec, UnknownSectionAndMalformedLines) {
  expect_error("[nonsense]\nkey = 1\n", "test.spec:1", "unknown section");
  expect_error("[campaign\nname = x\n", "test.spec:1", "malformed section header");
  expect_error("name = orphan\n", "test.spec:1", "before any [section]");
  expect_error("[campaign]\njust some words\n", "test.spec:2", "expected 'key = value'");
  expect_error("[campaign]\nname =\n", "test.spec:2", "empty value");
}

TEST(ScenarioSpec, DuplicateKeyNamesBothLines) {
  expect_error(R"(
[campaign]
name = x
name = y
metrics = percent_unfair

[policies]
names = fcfs
)",
               "test.spec:4", "duplicate key 'name'", "line 3");
}

TEST(ScenarioSpec, ValueValidationCarriesLineNumbers) {
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair, no_such_metric\n"
               "[policies]\nnames = fcfs\n",
               "test.spec:3", "unknown metric 'no_such_metric'");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[policies]\nnames = fcfs, not_a_policy\n",
               "test.spec:5", "unknown policy 'not_a_policy'");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[workload]\nscale = -2\n[policies]\nnames = fcfs\n",
               "test.spec:5", "scale must be > 0");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[workload]\nscale = fast\n[policies]\nnames = fcfs\n",
               "test.spec:5", "not a number");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[grid]\nreservation_depth = 0\n[policies]\nnames = fcfs\n",
               "test.spec:5", "reservation_depth must be >= 1");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[engine]\nwcl_enforcement = sometimes\n[policies]\nnames = fcfs\n",
               "test.spec:5", "wcl_enforcement");
}

TEST(ScenarioSpec, WidthMetricNamesParseStrictly) {
  // One name per width category k = 0..10: no bin past the last, no
  // leading zeros, no missing index.
  for (const char* bad : {"avg_miss_w11", "avg_miss_w01", "avg_turnaround_w", "avg_miss_w-1",
                          "avg_miss_w+1", "avg_wait_w3"})
    expect_error(std::string("[campaign]\nname = x\n\nmetrics = percent_unfair, ") + bad +
                     "\n[policies]\nnames = fcfs\n",
                 "test.spec:4", "unknown metric '" + std::string(bad) + "'");
  const ScenarioSpec spec = parse(
      "[campaign]\nname = x\nmetrics = avg_miss_w0, avg_miss_w10, avg_turnaround_w7\n"
      "[policies]\nnames = fcfs\n");
  EXPECT_EQ(spec.metrics.size(), 3u);
}

TEST(ScenarioSpec, MissingRequiredKeys) {
  expect_error("[campaign]\nmetrics = percent_unfair\n[policies]\nnames = fcfs\n",
               "missing required [campaign] name");
  expect_error("[campaign]\nname = x\n[policies]\nnames = fcfs\n",
               "missing required [campaign] metrics");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n", "missing required [policies]");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[workload]\nsource = swf\n[policies]\nnames = fcfs\n",
               "swf source requires [workload] file");
}

TEST(ScenarioSpec, SourceSpecificKeysRejectOnTheWrongSource) {
  // A 'scale' on an SWF replay would silently no-op (the full archive runs
  // where the user expected a down-scaled smoke) — exactly the failure class
  // the strict parser exists to prevent. Same for the reverse direction.
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[workload]\nsource = swf\nfile = t.swf\nscale = 0.01\n"
               "[policies]\nnames = fcfs\n",
               "test.spec:7", "'scale' is only valid for source = ross");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[workload]\nsource = swf\nfile = t.swf\nseed = 7\n"
               "[policies]\nnames = fcfs\n",
               "test.spec:7", "'seed' is only valid for source = ross");
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[workload]\naccept_all_statuses = true\n"
               "[policies]\nnames = fcfs\n",
               "test.spec:5", "'accept_all_statuses' is only valid for source = swf");
}

TEST(ScenarioSpec, DepthPolicyNamesParseStrictly) {
  EXPECT_TRUE(policy_from_name("depth8").has_value());
  EXPECT_EQ(policy_from_name("depth8")->reservation_depth, 8);
  // Trailing garbage and out-of-range values are unknown names, not depth 8.
  EXPECT_FALSE(policy_from_name("depth8junk").has_value());
  EXPECT_FALSE(policy_from_name("depth").has_value());
  EXPECT_FALSE(policy_from_name("depth0").has_value());
  EXPECT_FALSE(policy_from_name("depth99999999999999").has_value());
  expect_error("[campaign]\nname = x\nmetrics = percent_unfair\n"
               "[policies]\nnames = depth4junk\n",
               "test.spec:5", "unknown policy 'depth4junk'");
}

TEST(ScenarioSpec, SwfRefusesMultipleSeeds) {
  expect_error(R"(
[campaign]
name = x
metrics = percent_unfair

[workload]
source = swf
file = trace.swf

[policies]
names = fcfs

[seeds]
list = 1, 2
)",
               "test.spec:14", "SWF trace is fixed data");
}

TEST(ScenarioSpec, SwfSourceKeepsThePathAsWritten) {
  // The trace is read through the spec directory, but summary.json and the
  // journal fingerprint name it as the spec wrote it, so running the same
  // spec from another working directory writes the same bytes.
  const std::string text =
      "[campaign]\nname = x\nmetrics = percent_unfair\n"
      "[workload]\nsource = swf\nfile = ../data/trace.swf\n[policies]\nnames = fcfs\n";
  std::istringstream from_root(text);
  std::istringstream from_here(text);
  const ScenarioSpec a = parse_spec(from_root, "specs/x.spec", "specs");
  const ScenarioSpec b = parse_spec(from_here, "x.spec", "");
  EXPECT_EQ(a.workload.swf_file, "specs/../data/trace.swf");
  EXPECT_EQ(b.workload.swf_file, "../data/trace.swf");
  EXPECT_EQ(a.workload.swf_source(), "../data/trace.swf");
  EXPECT_EQ(b.workload.swf_source(), "../data/trace.swf");
  EXPECT_EQ(spec_fingerprint(a), spec_fingerprint(b));
}

TEST(ScenarioSpec, GridAndSeedsParse) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = gridful
metrics = percent_unfair, avg_wait

[workload]
scale = 0.05

[policies]
names = cplant24.nomax.all, cons.nomax

[grid]
starvation_delay_hours = 24, 72
max_runtime_hours = none, 72
bar_heavy_users = false, true

[seeds]
list = 7, 8, 9
)");
  // 3 seeds x 2 policies x 8 axis combinations.
  EXPECT_EQ(expand_campaign(spec).expanded_cells, 48u);
  ASSERT_EQ(spec.grid.starvation_delay.size(), 2u);
  EXPECT_EQ(spec.grid.starvation_delay[1], hours(72));
  ASSERT_EQ(spec.grid.max_runtime.size(), 2u);
  EXPECT_EQ(spec.grid.max_runtime[0], kNoTime);
  EXPECT_EQ(spec.grid.max_runtime[1], hours(72));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{7, 8, 9}));
}

TEST(ScenarioSpec, ExpansionCountsAndOrder) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = expansion
metrics = percent_unfair

[policies]
names = cplant24.nomax.all, easy

[grid]
max_runtime_hours = none, 72

[seeds]
list = 1, 2
)");
  const CampaignPlan plan = expand_campaign(spec);
  EXPECT_EQ(plan.expanded_cells, 8u);  // 2 seeds x 2 policies x 2 max
  ASSERT_EQ(plan.cells.size(), 8u);    // nothing collapses here
  // Seed-major, policy order preserved, axis values fastest.
  EXPECT_EQ(plan.cells[0].seed, 1u);
  EXPECT_EQ(plan.cells[0].policy.display_name(), "cplant24.nomax.all");
  EXPECT_EQ(plan.cells[1].policy.display_name(), "cplant24.72max.all");
  EXPECT_EQ(plan.cells[2].policy.display_name(), "easy");
  EXPECT_EQ(plan.cells[3].policy.max_runtime, hours(72));
  EXPECT_EQ(plan.cells[4].seed, 2u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i) EXPECT_EQ(plan.cells[i].index, i);
}

TEST(ScenarioSpec, DedupCollapsesIrrelevantKnobAxes) {
  // A starvation-delay axis is meaningful for the CPlant cell but a no-op for
  // conservative: the duplicate conservative cells must collapse through
  // PolicyConfig::canonical_key() after knob normalization.
  const ScenarioSpec spec = parse(R"(
[campaign]
name = dedup
metrics = percent_unfair

[policies]
names = cplant24.nomax.all, cons.nomax

[grid]
starvation_delay_hours = 24, 72
)");
  const CampaignPlan plan = expand_campaign(spec);
  EXPECT_EQ(plan.expanded_cells, 4u);
  ASSERT_EQ(plan.cells.size(), 3u);
  EXPECT_EQ(plan.cells[0].policy.display_name(), "cplant24.nomax.all");
  EXPECT_EQ(plan.cells[1].policy.display_name(), "cplant72.nomax.all");
  EXPECT_EQ(plan.cells[2].policy.display_name(), "cons.nomax");
  // Every surviving key is unique.
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    for (std::size_t j = i + 1; j < plan.cells.size(); ++j)
      EXPECT_NE(plan.cells[i].key, plan.cells[j].key);
}

TEST(ScenarioSpec, ExpansionKeepsEqualDisplayNamesWithDistinctKeys) {
  // heavy_user_factor is not part of the display name, so both cells share
  // the display name cplant24.nomax.fair; the dedupe must key on the full
  // config and keep both, or one factor's results would stand in for the
  // other's. The cell name carries a factor that is not the default.
  const ScenarioSpec spec = parse(R"(
[campaign]
name = factors
metrics = percent_unfair

[policies]
names = cplant24.nomax.fair

[grid]
heavy_user_factor = 4, 1
)");
  const CampaignPlan plan = expand_campaign(spec);
  EXPECT_EQ(plan.expanded_cells, 2u);
  ASSERT_EQ(plan.cells.size(), 2u);
  EXPECT_EQ(plan.cells[0].policy.display_name(), "cplant24.nomax.fair");
  EXPECT_EQ(plan.cells[1].policy.display_name(), "cplant24.nomax.fair");
  EXPECT_EQ(plan.cells[0].policy.heavy_user_factor, 4.0);
  EXPECT_EQ(plan.cells[1].policy.heavy_user_factor, 1.0);
  EXPECT_NE(plan.cells[0].key, plan.cells[1].key);
  EXPECT_EQ(plan.cells[0].name, "cplant24.nomax.fair");
  EXPECT_EQ(plan.cells[1].name, "cplant24.nomax.fair[heavy_user_factor=1]");
}

TEST(ScenarioSpec, OverridesDropStalePresetNames) {
  // paper_policy configs carry a preset display name; a knob override must
  // re-derive it instead of simulating under a stale label.
  const ScenarioSpec spec = parse(R"(
[campaign]
name = rename
metrics = percent_unfair

[policies]
names = cplant24.nomax.all

[grid]
starvation_delay_hours = 72
max_runtime_hours = 72
)");
  const CampaignPlan plan = expand_campaign(spec);
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].policy.display_name(), "cplant72.72max.all");
}

TEST(ScenarioSpec, CommentsAndBlankLinesIgnored) {
  const ScenarioSpec spec = parse(R"(
# full-line comment
; alternative comment style

[campaign]
name = commented
metrics = percent_unfair

[policies]
names = fcfs
)");
  EXPECT_EQ(spec.name, "commented");
}

}  // namespace
}  // namespace psched::scenario
