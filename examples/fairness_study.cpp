// Fairness metric study: compares the three FST flavours the paper discusses
// (section 4) on one schedule — the hybrid fairshare FST (the paper's
// metric), the CONS_P FST of Srinivasan et al., and the per-policy
// "no later arrivals" FST of Sabin et al. — plus the resource-equality
// metric. The Sabin variant runs on the forked simulation engine (one pass
// plus a per-arrival fork) instead of the historical O(n^2) per-job
// re-simulation, so it is no longer restricted to toy traces; that one pass
// is also the schedule the other metrics read. It ends with
// who is treated unfairly: the heaviest users' treatment under the hybrid FST.

#include <algorithm>
#include <iostream>

#include "metrics/breakdowns.hpp"
#include "metrics/fst.hpp"
#include "metrics/resource_equality.hpp"
#include "sim/engine.hpp"
#include "sim/policy_fst.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace psched;

  const Workload trace =
      workload::generate_small_workload(/*seed=*/7, /*jobs=*/400, /*system_size=*/128,
                                        /*span=*/days(14), /*user_count=*/12);
  sim::EngineConfig config;
  config.policy = paper_policy(PaperPolicy::Cplant24NomaxAll);
  // Sabin et al.: the policy's own schedule with later arrivals removed —
  // one forked drain per job instead of a full re-simulation per job. The
  // pass that forks them is also the simulation every metric reads.
  const sim::PolicyFstRun run = sim::simulate_with_policy_fst(trace, config);
  const SimulationResult& result = run.simulation;
  const std::vector<Time>& sabin_fst = run.fair_start;

  const metrics::FstResult hybrid = metrics::hybrid_fairshare_fst(result);
  const metrics::FstResult consp = metrics::cons_p_fst(result);

  std::size_t sabin_unfair = 0;
  double sabin_miss = 0.0;
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const Time miss = std::max<Time>(0, result.records[i].start - sabin_fst[i]);
    sabin_miss += static_cast<double>(miss);
    if (miss > 1) ++sabin_unfair;
  }
  sabin_miss /= static_cast<double>(trace.jobs.size());

  util::TextTable table({"metric", "percent_unfair", "avg_miss_s"});
  table.begin_row().add("hybrid fairshare FST (this paper)")
      .add_percent(hybrid.percent_unfair).add(hybrid.avg_miss_all, 0);
  table.begin_row().add("CONS_P FST (Srinivasan et al.)")
      .add_percent(consp.percent_unfair).add(consp.avg_miss_all, 0);
  table.begin_row().add("policy/no-later-arrivals FST (Sabin et al.)")
      .add_percent(static_cast<double>(sabin_unfair) / static_cast<double>(trace.jobs.size()))
      .add(sabin_miss, 0);
  std::cout << "policy: " << result.policy_name << ", " << trace.jobs.size() << " jobs\n\n"
            << table << '\n';

  const metrics::ResourceEquality eq = metrics::resource_equality(result);
  std::cout << "resource-equality metric (1/N share):\n"
            << "  normalized deficit " << eq.normalized_deficit << '\n'
            << "  Jain index         " << eq.jain_index << '\n';

  // Per user, heaviest demand first: which users miss their hybrid FST.
  const std::vector<metrics::UserSummary> users = metrics::user_breakdown(result, &hybrid);
  util::TextTable user_table({"user", "jobs", "proc_hours", "avg_wait_s", "avg_miss_s", "unfair"});
  for (std::size_t u = 0; u < std::min<std::size_t>(users.size(), 5); ++u) {
    const metrics::UserSummary& s = users[u];
    user_table.begin_row()
        .add_int(s.user)
        .add_int(static_cast<long long>(s.jobs))
        .add(s.proc_seconds / 3600.0, 0)
        .add(s.avg_wait, 0)
        .add(s.avg_miss, 0)
        .add_percent(s.unfair_fraction);
  }
  std::cout << "\nheaviest users under the hybrid FST:\n" << user_table;
  return 0;
}
