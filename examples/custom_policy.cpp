// Custom policy: shows how a downstream user extends the library with their
// own Scheduler. The example implements "widest job first with EASY-style
// head reservation" and compares it against the paper's baseline.

#include <algorithm>
#include <iostream>
#include <optional>

#include "metrics/report.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace {

using namespace psched;

/// Widest-first aggressive backfilling: the queue is ordered by descending
/// node count (ties FCFS); the head holds a reservation, everyone else may
/// backfill around it. A deliberately wide-job-friendly strawman.
class WidestFirstScheduler final : public Scheduler {
 public:
  std::string name() const override { return "widest-first-easy"; }

  void on_submit(JobId id) override { waiting_.push_back(id); }
  void on_complete(JobId) override {}

  void collect_starts(std::vector<JobId>& starts) override {
    wakeup_.reset();
    if (waiting_.empty()) return;
    const Time now = ctx().now();
    NodeCount free = ctx().free_nodes();
    Profile& profile = running_profile();  // running jobs' usage from now

    std::sort(waiting_.begin(), waiting_.end(), [&](JobId a, JobId b) {
      const Job& ja = ctx().job(a);
      const Job& jb = ctx().job(b);
      if (ja.nodes != jb.nodes) return ja.nodes > jb.nodes;
      return ja.submit != jb.submit ? ja.submit < jb.submit : a < b;
    });

    std::vector<JobId> keep;
    bool reserved = false;
    for (const JobId id : waiting_) {
      const Job& job = ctx().job(id);
      // try_add_usage checks the window and, if it fits, takes it.
      if (job.nodes <= free && profile.try_add_usage(now, now + job.wcl, job.nodes)) {
        starts.push_back(id);
        free -= job.nodes;
        continue;
      }
      if (!reserved) {  // head reservation for the widest blocked job
        wakeup_ = profile.reserve(now, job.wcl, job.nodes);
        reserved = true;
      }
      keep.push_back(id);
    }
    waiting_ = std::move(keep);
  }

  std::optional<Time> next_wakeup() const override { return wakeup_; }

  // Optional, but makes the policy forkable: sim::policy_no_later_arrivals_fst
  // and SimulationEngine::fork_for_arrival need a deep copy of the scheduler
  // state (without it, forking throws). Value members make it one line.
  std::unique_ptr<Scheduler> clone() const override { return cloned(*this); }

 private:
  std::vector<JobId> waiting_;
  std::optional<Time> wakeup_;
};

}  // namespace

int main() {
  using namespace psched;

  workload::GeneratorConfig generator;
  generator.count_scale = 0.25;
  generator.span = weeks(8);
  const Workload trace = workload::generate_ross_workload(generator);

  // Baseline via the factory…
  sim::EngineConfig base;
  base.policy = paper_policy(PaperPolicy::Cplant24NomaxAll);
  const metrics::PolicyReport baseline = metrics::evaluate(sim::simulate(trace, base));

  // …and the custom scheduler injected into the engine via simulate_with.
  sim::EngineConfig custom_cfg;
  custom_cfg.policy.name = "widest-first-easy";
  const SimulationResult custom =
      sim::simulate_with(trace, custom_cfg, std::make_unique<WidestFirstScheduler>());
  const metrics::PolicyReport report = metrics::evaluate(custom);

  std::vector<metrics::PolicyReport> reports{baseline, report};
  std::cout << metrics::fairness_summary_table(reports) << '\n'
            << metrics::performance_summary_table(reports) << '\n'
            << "wide-job turnaround (129-256 nodes): baseline "
            << util::format_duration_short(baseline.standard.avg_turnaround_by_width[8])
            << " vs custom "
            << util::format_duration_short(report.standard.avg_turnaround_by_width[8]) << '\n';
  return 0;
}
