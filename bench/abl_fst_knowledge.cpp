// Ablation: FST knowledge model. The hybrid FST can build its hypothetical
// schedule from user estimates (what the real scheduler knows; our default)
// or from perfect runtimes (the CONS_P convention). DESIGN.md documents why
// estimates reproduce the paper's ordering. A third reference joins them:
// the policy-knowledge FST of Sabin et al. ("no later arrivals" under the
// actual policy), computed with the forked simulation engine — one pass plus
// a per-arrival fork (sim/policy_fst.hpp) instead of the seed's O(n^2)
// truncated re-simulations, which made this column unaffordable at trace
// scale. The maximum-runtime variant has no per-original start under
// segmentation, so the policy rows cover the nomax policies only.

#include <iostream>

#include "common/experiment_env.hpp"
#include "metrics/fst.hpp"
#include "sim/policy_fst.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psched;
  bench::init(argc, argv);

  bench::print_header(
      "Ablation: FST knowledge (estimates vs perfect runtimes vs policy forks)",
      "FST fairness for three policies under both hybrid knowledge models, plus the "
      "policy-knowledge (no-later-arrivals) FST for the nomax policies",
      "perfect-runtime FSTs are strictly harder to meet (earlier), inflating miss counts "
      "for reservation-based schedulers; estimate-based FSTs compare each policy to the "
      "schedule it could actually have built; policy-knowledge FSTs re-run the policy "
      "itself without later arrivals and judge it against its own counterfactual");

  const std::vector<PolicyConfig> policies = {paper_policy(PaperPolicy::Cplant24NomaxAll),
                                              paper_policy(PaperPolicy::ConsNomax),
                                              paper_policy(PaperPolicy::ConsMax)};

  const std::vector<sim::ExperimentResult> runs =
      bench::runner().run_all(policies, bench::jobs());

  util::TextTable table({"knowledge", "policy", "percent_unfair", "unfair_any", "avg_miss_s"});
  for (const metrics::FstKnowledge knowledge :
       {metrics::FstKnowledge::Estimates, metrics::FstKnowledge::Perfect}) {
    for (const sim::ExperimentResult& run : runs) {
      metrics::FstOptions options;
      options.knowledge = knowledge;
      const metrics::FstResult fst = metrics::hybrid_fairshare_fst(run.simulation, options);
      table.begin_row()
          .add(knowledge == metrics::FstKnowledge::Estimates ? "estimates" : "perfect")
          .add(run.policy.display_name())
          .add_percent(fst.percent_unfair)
          .add_percent(fst.percent_unfair_any)
          .add(fst.avg_miss_all, 0);
    }
  }

  // Policy-knowledge rows (forked engine): defined only without a
  // maximum-runtime limit — segment chaining has no per-original start.
  for (const sim::ExperimentResult& run : runs) {
    if (run.policy.max_runtime != kNoTime) continue;
    sim::EngineConfig config = bench::runner().base_config();
    config.policy = run.policy;
    metrics::FstResult fst;
    fst.fair_start =
        sim::policy_no_later_arrivals_fst(bench::runner().workload(), config);
    metrics::aggregate_fst(run.simulation, metrics::FstOptions{}, fst);
    table.begin_row()
        .add("policy")
        .add(run.policy.display_name())
        .add_percent(fst.percent_unfair)
        .add_percent(fst.percent_unfair_any)
        .add(fst.avg_miss_all, 0);
  }
  std::cout << table;
  return 0;
}
