// psched-lint fixture tests: each contract rule fires on its seeded violation
// fixture, stays silent on the compliant twin, honors allow() suppressions
// with reasons, and rejects malformed suppressions. The full-tree run is
// pinned separately by the psched_lint.tree ctest (tool exit status).

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "psched_lint/lint.hpp"

namespace {

using psched::lint::Finding;
using psched::lint::Rule;

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(PSCHED_SOURCE_DIR) / "tests" / "lint_fixtures" / name;
}

std::vector<Finding> lint_fixture(const std::string& name) {
  return psched::lint::lint_paths({fixture(name)});
}

std::size_t count_rule(const std::vector<Finding>& findings, Rule rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [rule](const Finding& f) { return f.rule == rule; }));
}

std::vector<int> lines_of(const std::vector<Finding>& findings, Rule rule) {
  std::vector<int> lines;
  for (const Finding& f : findings)
    if (f.rule == rule) lines.push_back(f.line);
  return lines;
}

TEST(LintRawRng, FiresOnViolations) {
  const auto findings = lint_fixture("raw_rng_violation.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kRawRng), 4u);
  EXPECT_EQ(lines_of(findings, Rule::kRawRng), (std::vector<int>{6, 10, 15, 16}));
}

TEST(LintRawRng, SilentOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("raw_rng_clean.cpp").empty());
}

TEST(LintRawRng, SanctionedFileIsExempt) {
  // The fixture mirrors the sanctioned suffix src/util/rng.cpp: full of raw
  // randomness, yet exempt because it IS the sanctioned implementation.
  EXPECT_TRUE(lint_fixture("src/util/rng.cpp").empty());
}

TEST(LintWallClock, FiresOnViolations) {
  const auto findings = lint_fixture("wall_clock_violation.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kWallClock), 3u);
  EXPECT_EQ(lines_of(findings, Rule::kWallClock), (std::vector<int>{6, 11, 15}));
}

TEST(LintWallClock, SilentOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("wall_clock_clean.cpp").empty());
}

TEST(LintParallelAccum, FiresOnViolations) {
  const auto findings = lint_fixture("parallel_accum_violation.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kParallelFpAccum), 2u);
  EXPECT_EQ(lines_of(findings, Rule::kParallelFpAccum), (std::vector<int>{16, 22}));
}

TEST(LintParallelAccum, SilentOnCompliantTwin) {
  // Per-index writes in parallel lambdas, serial reductions, and accumulating
  // lambdas never handed to the pool are all allowed.
  EXPECT_TRUE(lint_fixture("parallel_accum_clean.cpp").empty());
}

TEST(LintSchedulerClone, FiresOnMissingOverride) {
  const auto findings = lint_fixture("scheduler_clone_violation.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kSchedulerClone), 1u);
  EXPECT_EQ(lines_of(findings, Rule::kSchedulerClone), (std::vector<int>{12}));
  EXPECT_NE(findings.front().message.find("GreedyNoClone"), std::string::npos);
}

TEST(LintSchedulerClone, SilentOnCompliantTwin) {
  // Overriding policies, SchedulerContext implementations, and base-less
  // classes are all fine.
  EXPECT_TRUE(lint_fixture("scheduler_clone_clean.cpp").empty());
}

TEST(LintRawFileWrite, FiresOnViolations) {
  const auto findings = lint_fixture("raw_file_write_violation.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kRawFileWrite), 3u);
  EXPECT_EQ(lines_of(findings, Rule::kRawFileWrite), (std::vector<int>{9, 14, 19}));
}

TEST(LintRawFileWrite, SilentOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("raw_file_write_clean.cpp").empty());
}

TEST(LintUnorderedIter, FiresOnViolations) {
  const auto findings = lint_fixture("unordered_iter_violation.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kUnorderedIter), 2u);
  EXPECT_EQ(lines_of(findings, Rule::kUnorderedIter), (std::vector<int>{8, 14}));
}

TEST(LintUnorderedIter, SilentOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("unordered_iter_clean.cpp").empty());
}

TEST(LintUnorderedIter, SeesDeclarationsInSiblingHeader) {
  // The member is declared in member_iter.hpp; the range-for lives in the
  // .cpp. lint_paths pairs them automatically.
  const auto findings = lint_fixture("member_iter.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kUnorderedIter), 1u);
  EXPECT_EQ(lines_of(findings, Rule::kUnorderedIter), (std::vector<int>{9}));
}

// raw-env is one table-driven rule over every registry-owned variable; the
// LintRawFaultEnv / LintRawTraceEnv suites check its PSCHED_FAULT* and
// PSCHED_TRACE rows. Lines of the raw-env findings that name `variable`:
std::vector<int> raw_env_lines(const std::vector<Finding>& findings, const std::string& variable) {
  std::vector<int> lines;
  for (const Finding& f : findings)
    if (f.rule == Rule::kRawEnv && f.message.find(variable) != std::string::npos)
      lines.push_back(f.line);
  return lines;
}

TEST(LintRawFaultEnv, FiresOnViolations) {
  const auto findings = lint_fixture("raw_env_violation.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kRawEnv), 4u);
  // Line 13: the literal sits one line below its getenv( — still caught.
  EXPECT_EQ(raw_env_lines(findings, "PSCHED_FAULT"), (std::vector<int>{8, 13}));
}

TEST(LintRawFaultEnv, SilentOnCompliantTwin) {
  // Reading other PSCHED_* knobs, *setting* the arming variables, and
  // mentioning them in prose literals are all allowed.
  EXPECT_TRUE(lint_fixture("raw_env_clean.cpp").empty());
}

TEST(LintRawFaultEnv, SanctionedRegistryIsExempt) {
  // Mirrors the sanctioned suffix src/util/fault.cpp — the registry is the
  // one reader of the fault-arming environment.
  EXPECT_TRUE(raw_env_lines(lint_fixture("src/util/fault.cpp"), "PSCHED_FAULT").empty());
}

TEST(LintRawTraceEnv, FiresOnViolations) {
  // Line 22: the literal sits one line below its getenv( — still caught.
  EXPECT_EQ(raw_env_lines(lint_fixture("raw_env_violation.cpp"), "PSCHED_TRACE"),
            (std::vector<int>{17, 22}));
}

TEST(LintRawTraceEnv, SanctionedRegistryIsExempt) {
  // Mirrors the sanctioned suffix src/obs/obs.cpp — the obs registry is the
  // one reader of the trace-arming environment.
  EXPECT_TRUE(lint_fixture("src/obs/obs.cpp").empty());
}

TEST(LintRawEnv, SanctionIsPerVariable) {
  // The fault registry owns PSCHED_FAULT* only: its PSCHED_TRACE read fires.
  const auto findings = lint_fixture("src/util/fault.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, Rule::kRawEnv);
  EXPECT_EQ(raw_env_lines(findings, "PSCHED_TRACE"), (std::vector<int>{7}));
}

TEST(LintWallClock, SanctionedTraceClockIsExempt) {
  // Mirrors the sanctioned suffix src/obs/clock.cpp — the one trace timestamp
  // source; its steady_clock read never feeds simulation results.
  EXPECT_TRUE(lint_fixture("src/obs/clock.cpp").empty());
}

TEST(LintSuppressions, WellFormedSuppressionsSilenceFindings) {
  // Same-line and own-line placements, each with a reason: file lints clean.
  EXPECT_TRUE(lint_fixture("suppressed_ok.cpp").empty());
}

TEST(LintSuppressions, MissingReasonIsRejectedAndDoesNotSuppress) {
  const auto findings = lint_fixture("suppression_missing_reason.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kBadSuppression), 2u);
  // ...and the underlying wall-clock findings survive.
  EXPECT_EQ(count_rule(findings, Rule::kWallClock), 2u);
}

TEST(LintSuppressions, UnknownRuleIsRejectedAndDoesNotSuppress) {
  const auto findings = lint_fixture("suppression_unknown_rule.cpp");
  EXPECT_EQ(count_rule(findings, Rule::kBadSuppression), 1u);
  EXPECT_NE(findings.front().message.find("wallclock"), std::string::npos);
  EXPECT_EQ(count_rule(findings, Rule::kWallClock), 1u);
}

TEST(LintSuppressions, SuppressionForOtherRuleDoesNotApply) {
  psched::lint::FileInput input;
  input.path = "inline.cpp";
  input.content =
      "long stamp() {\n"
      "  return time(0);  // psched-lint: allow(raw-rng): wrong rule on purpose\n"
      "}\n";
  const auto findings = psched::lint::lint_file(input);
  EXPECT_EQ(count_rule(findings, Rule::kWallClock), 1u);
}

TEST(LintReport, FormatIsFileLineRuleMessage) {
  const auto findings = lint_fixture("scheduler_clone_violation.cpp");
  ASSERT_EQ(findings.size(), 1u);
  const std::string report = psched::lint::format_finding(findings.front());
  EXPECT_NE(report.find("scheduler_clone_violation.cpp:12: [scheduler-clone]"),
            std::string::npos);
}

TEST(LintTree, RealTreeIsClean) {
  // The contract the whole PR rests on: the production tree has zero
  // findings. (Also enforced as the psched_lint.tree ctest via the CLI.)
  const auto findings = psched::lint::lint_tree(PSCHED_SOURCE_DIR);
  for (const Finding& f : findings) ADD_FAILURE() << psched::lint::format_finding(f);
}

TEST(LintRuleNames, RoundTrip) {
  for (const char* name : {"raw-rng", "wall-clock", "parallel-fp-accum", "scheduler-clone",
                           "raw-file-write", "unordered-iter", "raw-env"}) {
    Rule rule;
    ASSERT_TRUE(psched::lint::rule_from_name(name, rule)) << name;
    EXPECT_STREQ(psched::lint::rule_name(rule), name);
  }
  Rule rule;
  EXPECT_FALSE(psched::lint::rule_from_name("bad-suppression", rule));
  EXPECT_FALSE(psched::lint::rule_from_name("nope", rule));
}

TEST(LintRuleNames, EveryNameableRuleHasASummary) {
  // --list-rules prints these; a rule added without one would list blank.
  // Every enumerator before kBadSuppression is nameable.
  for (int i = 0; i < static_cast<int>(Rule::kBadSuppression); ++i) {
    const Rule rule = static_cast<Rule>(i);
    Rule parsed;
    ASSERT_TRUE(psched::lint::rule_from_name(psched::lint::rule_name(rule), parsed)) << i;
    EXPECT_EQ(parsed, rule);
    EXPECT_STRNE(psched::lint::rule_summary(rule), "") << psched::lint::rule_name(rule);
  }
}

}  // namespace
