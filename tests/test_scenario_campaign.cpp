// Campaign runner integration: the committed paper spec reproduces a
// hand-built policy sweep bit-for-bit and the paper's orderings at full
// scale, SWF replay works end to end at smoke scale, serial and parallel
// campaigns are byte-identical, every grid cell is named in the stores and
// tables, and multi-seed replication aggregates into deterministic bootstrap
// intervals.

#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/categories.hpp"
#include "metrics/report.hpp"
#include "metrics/selection.hpp"
#include "sim/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/swf.hpp"

namespace psched::scenario {
namespace {

const std::string kSourceDir = PSCHED_SOURCE_DIR;

ScenarioSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_spec(in, "test.spec");
}

std::string csv_of(const CampaignResult& result) {
  std::ostringstream out;
  write_cells_csv(result, out);
  return out.str();
}

std::string json_of(const CampaignResult& result) {
  std::ostringstream out;
  write_summary_json(result, out);
  return out.str();
}

TEST(Campaign, CommittedFig14SpecMatchesTheFigureBinaryPath) {
  // The committed paper spec runs Figure 14's configuration (same seed, all
  // nine policies in paper order); only the trace scale is turned down so
  // the test stays quick — the workload construction formula (span scaling
  // included) is what's pinned.
  ScenarioSpec spec = parse_spec_file(kSourceDir + "/bench/figures/paper_policies.spec");
  EXPECT_EQ(spec.workload.seed, 20021201u);
  const std::vector<PolicyConfig> paper = all_paper_policies();
  ASSERT_EQ(spec.policy_names.size(), paper.size());
  for (std::size_t i = 0; i < paper.size(); ++i)
    EXPECT_EQ(spec.policy_names[i], paper[i].display_name());

  spec.workload.scale = 0.05;
  const CampaignResult result = run_campaign(spec);

  // The reference, built without build_workload: the Ross generator with the
  // span scaling spelled out, swept through an ExperimentRunner with
  // default engine settings.
  workload::GeneratorConfig generator;
  generator.seed = spec.workload.seed;
  generator.count_scale = spec.workload.scale;
  generator.span = std::max<Time>(
      weeks(4),
      static_cast<Time>(static_cast<double>(workload::kRossTraceSpan) * spec.workload.scale));
  sim::ExperimentRunner runner(workload::generate_ross_workload(generator));
  std::vector<metrics::PolicyReport> reference;
  for (sim::ExperimentResult& run : runner.run_all(paper))
    reference.push_back(std::move(run.report));

  ASSERT_EQ(result.cells.size(), paper.size());
  for (std::size_t i = 0; i < paper.size(); ++i) {
    EXPECT_EQ(result.reports[i].policy, reference[i].policy);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      // Bit-for-bit, not approximately: same workload, same policy, same
      // seed must be the same simulation.
      EXPECT_DOUBLE_EQ(result.cells[i].metrics[m],
                       metrics::metric_value(reference[i], spec.metrics[m]))
          << result.reports[i].policy << " / " << spec.metrics[m];
    }
  }
  // The rendered Figure 14 table byte-diffs clean.
  EXPECT_EQ(metrics::fairness_summary_table(result.reports).str(),
            metrics::fairness_summary_table(reference).str());
}

std::size_t metric_column(const ScenarioSpec& spec, const std::string& name) {
  const auto it = std::find(spec.metrics.begin(), spec.metrics.end(), name);
  EXPECT_NE(it, spec.metrics.end()) << name;
  return static_cast<std::size_t>(it - spec.metrics.begin());
}

TEST(Campaign, PaperPoliciesSpecShowsThePaperOrderings) {
  // The committed spec at full scale: three orderings the paper reports.
  const ScenarioSpec spec = parse_spec_file(kSourceDir + "/bench/figures/paper_policies.spec");
  ASSERT_EQ(spec.workload.scale, 1.0);
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.count(CellStatus::Ok), 9u);
  const auto value = [&](const std::string& policy, const std::string& metric) {
    for (const CellResult& cell : result.cells)
      if (cell.cell.name == policy) return cell.metrics[metric_column(spec, metric)];
    ADD_FAILURE() << "no cell " << policy;
    return 0.0;
  };

  // Figure 8: every minor change leaves fewer jobs unfair than the baseline.
  const double baseline = value("cplant24.nomax.all", "percent_unfair");
  for (const char* minor :
       {"cplant24.nomax.fair", "cplant72.nomax.all", "cplant24.72max.all", "cplant72.72max.fair"})
    EXPECT_LT(value(minor, "percent_unfair"), baseline) << minor;

  // Figure 14: conservative with dynamic reservations has the fewest.
  const double consdyn = value("consdyn.nomax", "percent_unfair");
  for (const CellResult& cell : result.cells) {
    if (cell.cell.name == "consdyn.nomax") continue;
    EXPECT_LT(consdyn, cell.metrics[metric_column(spec, "percent_unfair")]) << cell.cell.name;
  }

  // Figure 16: conservative backfilling lowers the summed miss of the wide
  // (65+ node) categories below the baseline's.
  const auto wide_miss = [&](const std::string& policy) {
    double sum = 0.0;
    for (int w = width_category(65); w < kWidthCategories; ++w)
      sum += value(policy, "avg_miss_w" + std::to_string(w));
    return sum;
  };
  EXPECT_LT(wide_miss("cons.nomax"), wide_miss("cplant24.nomax.all"));
}

TEST(Campaign, WidthMetricsReadTheReportArrays) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = widths
metrics = avg_miss_w0, avg_turnaround_w10

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all, cons.nomax
)");
  const CampaignResult result = run_campaign(spec);
  ASSERT_TRUE(result.reports_complete);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const metrics::PolicyReport& report = result.reports[i];
    for (int w = 0; w < kWidthCategories; ++w) {
      const auto k = static_cast<std::size_t>(w);
      EXPECT_EQ(metrics::metric_value(report, "avg_miss_w" + std::to_string(w)),
                report.fairness.avg_miss_by_width[k]);
      EXPECT_EQ(metrics::metric_value(report, "avg_turnaround_w" + std::to_string(w)),
                report.standard.avg_turnaround_by_width[k]);
    }
    EXPECT_EQ(result.cells[i].metrics[0], report.fairness.avg_miss_by_width[0]);
    EXPECT_EQ(result.cells[i].metrics[1], report.standard.avg_turnaround_by_width[10]);
  }
  // Something in the widest bin ran, so the comparison above is not 0 == 0.
  EXPECT_GT(result.reports[0].standard.avg_turnaround_by_width[10], 0.0);
  EXPECT_THROW(metrics::metric_value(result.reports[0], "avg_miss_w11"), std::invalid_argument);
}

/// The policy column (the fifth field) of every cells.csv row.
std::vector<std::string> csv_policies(const CampaignResult& result) {
  std::istringstream csv(csv_of(result));
  std::string line;
  std::getline(csv, line);  // header
  std::vector<std::string> policies;
  while (std::getline(csv, line)) {
    std::istringstream fields(line);
    std::string field;
    for (int f = 0; f < 5; ++f) std::getline(fields, field, ',');
    policies.push_back(field);
  }
  return policies;
}

TEST(Campaign, HeavyUserFactorAxisNamesEveryStoreRow) {
  // display_name leaves the factor out; the store rows must not.
  const ScenarioSpec spec = parse(R"(
[campaign]
name = factors
metrics = percent_unfair

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.fair

[grid]
heavy_user_factor = 1.5, 4, 8
)");
  const CampaignResult result = run_campaign(spec);
  const std::vector<std::string> expected = {"cplant24.nomax.fair[heavy_user_factor=1.5]",
                                             "cplant24.nomax.fair",
                                             "cplant24.nomax.fair[heavy_user_factor=8]"};
  EXPECT_EQ(csv_policies(result), expected);
  ASSERT_EQ(result.aggregates.size(), 3u);
  const std::string json = json_of(result);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.aggregates[i].policy, expected[i]);
    EXPECT_EQ(result.reports[i].policy, expected[i]);
    EXPECT_NE(json.find("{\"policy\": \"" + expected[i] + "\""), std::string::npos);
  }
}

TEST(Campaign, DecayAxisNamesEveryTableRow) {
  // The fairness and performance tables have no decay column, so a decay
  // axis puts the decay into each row's name; the store keeps the bare name
  // beside its decay column.
  const ScenarioSpec spec = parse(R"(
[campaign]
name = decays
metrics = percent_unfair

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all, consdyn.nomax

[grid]
decay = 0.5, 0.99
)");
  const CampaignResult result = run_campaign(spec);
  ASSERT_TRUE(result.reports_complete);
  const std::vector<std::string> expected = {
      "cplant24.nomax.all[decay=0.5]", "cplant24.nomax.all[decay=0.99]",
      "consdyn.nomax[decay=0.5]", "consdyn.nomax[decay=0.99]"};
  for (const util::TextTable& table : {metrics::fairness_summary_table(result.reports),
                                       metrics::performance_summary_table(result.reports)}) {
    ASSERT_EQ(table.rows(), expected.size());
    for (std::size_t row = 0; row < expected.size(); ++row)
      EXPECT_EQ(table.cell(row, 0), expected[row]);
  }
  EXPECT_EQ(csv_policies(result), (std::vector<std::string>{"cplant24.nomax.all",
                                                            "cplant24.nomax.all", "consdyn.nomax",
                                                            "consdyn.nomax"}));
}

TEST(Campaign, CommittedSwfReplaySpecRunsTheSampleArchive) {
  const ScenarioSpec spec =
      parse_spec_file(kSourceDir + "/examples/campaigns/swf_replay.spec");
  const CampaignResult result = run_campaign(spec);

  // Ingestion accounting: the committed sample mixes completed records with
  // spliced failed/cancelled/partial ones, and the campaign surfaces what
  // the status filter dropped.
  ASSERT_TRUE(result.swf_info.has_value());
  EXPECT_EQ(result.swf_info->total_records, 194u);
  EXPECT_EQ(result.swf_info->filtered_records, 14u);
  EXPECT_EQ(result.swf_info->skipped_records, 0u);
  EXPECT_EQ(result.swf_info->sizing, workload::SwfSizing::HeaderNodes);
  ASSERT_EQ(result.traces.size(), 1u);
  EXPECT_EQ(result.traces[0].jobs, 180u);
  EXPECT_EQ(result.traces[0].system_size, 1524);

  // Two policies replayed; metrics are real numbers from a real simulation.
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.reports[0].policy, "cplant24.nomax.all");
  EXPECT_EQ(result.reports[1].policy, "cons.nomax");
  const std::size_t utilization = [&] {
    for (std::size_t m = 0; m < spec.metrics.size(); ++m)
      if (spec.metrics[m] == "utilization") return m;
    return spec.metrics.size();
  }();
  ASSERT_LT(utilization, spec.metrics.size());
  for (const CellResult& cell : result.cells) {
    EXPECT_GT(cell.metrics[utilization], 0.0);
    for (const double value : cell.metrics) EXPECT_TRUE(std::isfinite(value));
  }

  // Replaying the same archive directly gives the same numbers.
  const workload::SwfReadResult direct =
      workload::read_swf_file_streaming(kSourceDir + "/tests/data/sample_cplant.swf");
  sim::ExperimentRunner runner(direct.workload);
  const sim::ExperimentResult& baseline = runner.run(*policy_from_name("cplant24.nomax.all"));
  EXPECT_DOUBLE_EQ(result.cells[0].metrics[utilization], baseline.report.standard.utilization);
}

TEST(Campaign, SerialAndParallelRunsAreByteIdentical) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = serial_vs_parallel
metrics = percent_unfair, avg_wait, avg_turnaround, utilization

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all, easy, cons.nomax

[seeds]
list = 11, 12
)");
  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions parallel;
  parallel.jobs = 4;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);
  EXPECT_EQ(csv_of(a), csv_of(b));
  EXPECT_EQ(json_of(a), json_of(b));
}

TEST(Campaign, MultiSeedAggregationIsDeterministicAndSane) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = multiseed
metrics = avg_wait, utilization
bootstrap_resamples = 500

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all

[seeds]
list = 1, 2, 3, 4, 5
)");
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 5u);
  ASSERT_EQ(result.aggregates.size(), 1u);
  const AggregateResult& aggregate = result.aggregates[0];
  EXPECT_EQ(aggregate.policy, "cplant24.nomax.all");
  EXPECT_EQ(aggregate.replicates, 5u);
  ASSERT_EQ(aggregate.metrics.size(), 2u);
  for (std::size_t m = 0; m < aggregate.metrics.size(); ++m) {
    const util::BootstrapCi& ci = aggregate.metrics[m];
    // The aggregate mean is the plain mean of the five replicate values.
    double sum = 0.0;
    for (const CellResult& cell : result.cells) sum += cell.metrics[m];
    EXPECT_DOUBLE_EQ(ci.mean, sum / 5.0);
    EXPECT_LE(ci.lo, ci.mean);
    EXPECT_GE(ci.hi, ci.mean);
  }
  // Replicates genuinely vary (different seeds, loaded trace) so the band
  // has width — a degenerate all-equal aggregate would hide a seed bug.
  EXPECT_LT(aggregate.metrics[0].lo, aggregate.metrics[0].hi);

  // Bootstrap streams derive from the spec seed: the whole run repeats
  // byte-for-byte, and a different bootstrap seed moves only the band.
  const CampaignResult again = run_campaign(spec);
  EXPECT_EQ(json_of(result), json_of(again));
  ScenarioSpec reseeded = spec;
  reseeded.bootstrap_seed = 2;
  const CampaignResult moved = run_campaign(reseeded);
  EXPECT_DOUBLE_EQ(moved.aggregates[0].metrics[0].mean, aggregate.metrics[0].mean);
  EXPECT_TRUE(moved.aggregates[0].metrics[0].lo != aggregate.metrics[0].lo ||
              moved.aggregates[0].metrics[0].hi != aggregate.metrics[0].hi);
}

TEST(Campaign, ToleranceRecomputesTheFairnessMetrics) {
  const char* text = R"(
[campaign]
name = tolerance
metrics = percent_unfair
tolerance_hours = {}

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = easy

[seeds]
list = 1
)";
  auto with_tolerance = [&](const std::string& hours_text) {
    std::string spec_text = text;
    spec_text.replace(spec_text.find("{}"), 2, hours_text);
    return run_campaign(parse(spec_text));
  };
  // 0.000278 h casts to a 1 s tolerance — the exact threshold of the
  // "any miss" strict count, so percent_unfair evaluated at it must coincide
  // with the default-tolerance report's percent_unfair_any.
  const CampaignResult strict = with_tolerance("0.000278");
  const CampaignResult loose = with_tolerance("24");
  // A tighter tolerance can only count more jobs as unfair; on this loaded
  // trace it genuinely does, proving the tolerance reached the FST metric.
  EXPECT_GT(strict.cells[0].metrics[0], loose.cells[0].metrics[0]);
  EXPECT_DOUBLE_EQ(strict.cells[0].metrics[0], loose.reports[0].fairness.percent_unfair_any);
}

TEST(Campaign, BuildWorkloadAppliesTransformsInOrder) {
  WorkloadSpec spec;
  spec.scale = 0.02;
  spec.head = 50;
  spec.rescale_load = 2.0;
  const Workload transformed = build_workload(spec, 7);
  ASSERT_EQ(transformed.jobs.size(), 50u);

  WorkloadSpec plain;
  plain.scale = 0.02;
  const Workload original = build_workload(plain, 7);
  ASSERT_GE(original.jobs.size(), 50u);
  // head keeps the first 50 jobs; rescale_load 2.0 halves every inter-arrival
  // gap (so the 50-job head spans half the time, runtimes untouched).
  EXPECT_EQ(transformed.jobs[49].runtime, original.jobs[49].runtime);
  EXPECT_LT(transformed.jobs[49].submit, original.jobs[49].submit);
}

TEST(Campaign, GridDecayAxisSplitsEngineGroups) {
  const ScenarioSpec spec = parse(R"(
[campaign]
name = decay_axis
metrics = avg_wait

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all

[grid]
decay = 0.5, 0.9
)");
  const CampaignPlan plan = expand_campaign(spec);
  ASSERT_EQ(plan.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.cells[0].decay, 0.5);
  EXPECT_DOUBLE_EQ(plan.cells[1].decay, 0.9);
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.aggregates.size(), 2u);
  // Same policy label, distinct engine knob: both aggregates survive.
  EXPECT_EQ(result.aggregates[0].policy, result.aggregates[1].policy);
  EXPECT_NE(result.aggregates[0].decay, result.aggregates[1].decay);
}

TEST(Campaign, SummaryJsonPinsSwfSizingProvenance) {
  const ScenarioSpec spec =
      parse_spec_file(kSourceDir + "/examples/campaigns/swf_replay.spec");
  const CampaignResult result = run_campaign(spec);
  ASSERT_TRUE(result.swf_info.has_value());
  const std::string json = json_of(result);
  // The exact provenance line: where the 1524-node figure came from, plus the
  // ingest counters, immediately after the source.
  EXPECT_NE(json.find("\"swf_sizing\": {\"description\": \"" +
                      result.swf_info->describe_sizing() +
                      "\", \"total_records\": 194, \"skipped_records\": 0, "
                      "\"filtered_records\": 14}"),
            std::string::npos)
      << json;
  EXPECT_NE(result.swf_info->describe_sizing().find("1524 nodes (SWF header MaxNodes"),
            std::string::npos);
  // Ross-sourced campaigns have no SWF provenance to report.
  const ScenarioSpec ross = parse(R"(
[campaign]
name = no_swf
metrics = avg_wait

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = easy
)");
  EXPECT_EQ(json_of(run_campaign(ross)).find("swf_sizing"), std::string::npos);
}

TEST(Campaign, PolicyMetricsComputeTheForkedFst) {
  // Selecting a policy_* metric turns on the forked-engine FST for the
  // sweep; the cell numbers must be bit-identical to running the same
  // workload through an ExperimentRunner with policy_knowledge set.
  const ScenarioSpec spec = parse(R"(
[campaign]
name = policy_fst
metrics = policy_percent_unfair, policy_avg_miss_all, policy_max_miss, avg_wait

[workload]
scale = 0.02
rescale_load = 30

[policies]
names = cplant24.nomax.all, cons.nomax
)");
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.count(CellStatus::Ok), 2u);

  const Workload w = build_workload(spec.workload, result.plan.seeds.at(0));
  metrics::FstOptions fst;
  fst.tolerance = spec.tolerance;
  fst.policy_knowledge = true;
  sim::ExperimentRunner runner(w, {}, fst);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const sim::ExperimentResult& reference = runner.run(result.plan.cells[i].policy);
    ASSERT_TRUE(reference.report.has_policy_fairness);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m)
      EXPECT_DOUBLE_EQ(result.cells[i].metrics[m],
                       metrics::metric_value(reference.report, spec.metrics[m]))
          << result.plan.cells[i].policy.display_name() << " / " << spec.metrics[m];
    // The forked FST is a different quantity from the hybrid FST — equal
    // vectors would mean the wiring read the wrong field.
    EXPECT_NE(reference.report.policy_fairness.fair_start,
              reference.report.fairness.fair_start);
  }
}

TEST(Campaign, PolicyMetricOnPlainReportThrows) {
  // A policy_* metric against a report computed without policy_knowledge is
  // a wiring bug and must fail loudly, never aggregate zeros.
  const Workload w = workload::generate_small_workload(3, 40, 32, days(1));
  sim::ExperimentRunner runner(w);
  const sim::ExperimentResult& run = runner.run(*policy_from_name("easy"));
  EXPECT_FALSE(run.report.has_policy_fairness);
  EXPECT_THROW(metrics::metric_value(run.report, "policy_percent_unfair"),
               std::invalid_argument);
}

}  // namespace
}  // namespace psched::scenario
