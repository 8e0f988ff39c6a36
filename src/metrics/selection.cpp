#include "metrics/selection.hpp"

#include <algorithm>
#include <stdexcept>

namespace psched::metrics {

namespace {
struct NamedMetric {
  const char* name;
  double (*get)(const PolicyReport&);
};

// policy_* metrics read the forked-engine FST, which ExperimentRunner only
// computes when FstOptions::policy_knowledge is set (the campaign sets it
// whenever a policy_* metric is selected). A report without it means the
// caller's wiring is wrong — fail loudly rather than aggregate zeros.
const FstResult& policy_fst(const PolicyReport& report) {
  if (!report.has_policy_fairness)
    throw std::invalid_argument("metric_value: policy_* metric selected but the report has no "
                                "policy-knowledge FST (FstOptions::policy_knowledge not set)");
  return report.policy_fairness;
}

// Fairness first (the paper's headline quantities), then the standard
// user/system metrics. makespan is integer seconds widened to double so every
// selected metric aggregates the same way.
constexpr NamedMetric kCatalog[] = {
    {"percent_unfair", [](const PolicyReport& r) { return r.fairness.percent_unfair; }},
    {"percent_unfair_any", [](const PolicyReport& r) { return r.fairness.percent_unfair_any; }},
    {"percent_unfair_load", [](const PolicyReport& r) { return r.fairness.percent_unfair_load; }},
    {"avg_miss_all", [](const PolicyReport& r) { return r.fairness.avg_miss_all; }},
    {"avg_miss_unfair", [](const PolicyReport& r) { return r.fairness.avg_miss_unfair; }},
    {"max_miss", [](const PolicyReport& r) { return r.fairness.max_miss; }},
    {"policy_percent_unfair", [](const PolicyReport& r) { return policy_fst(r).percent_unfair; }},
    {"policy_percent_unfair_any",
     [](const PolicyReport& r) { return policy_fst(r).percent_unfair_any; }},
    {"policy_avg_miss_all", [](const PolicyReport& r) { return policy_fst(r).avg_miss_all; }},
    {"policy_avg_miss_unfair",
     [](const PolicyReport& r) { return policy_fst(r).avg_miss_unfair; }},
    {"policy_max_miss", [](const PolicyReport& r) { return policy_fst(r).max_miss; }},
    {"job_count", [](const PolicyReport& r) { return static_cast<double>(r.standard.job_count); }},
    {"avg_wait", [](const PolicyReport& r) { return r.standard.avg_wait; }},
    {"avg_turnaround", [](const PolicyReport& r) { return r.standard.avg_turnaround; }},
    {"avg_bounded_slowdown",
     [](const PolicyReport& r) { return r.standard.avg_bounded_slowdown; }},
    {"max_wait", [](const PolicyReport& r) { return r.standard.max_wait; }},
    {"makespan", [](const PolicyReport& r) { return static_cast<double>(r.standard.makespan); }},
    {"utilization", [](const PolicyReport& r) { return r.standard.utilization; }},
    {"loss_of_capacity", [](const PolicyReport& r) { return r.standard.loss_of_capacity; }},
};
}  // namespace

bool is_metric_name(const std::string& name) {
  return std::any_of(std::begin(kCatalog), std::end(kCatalog),
                     [&](const NamedMetric& metric) { return metric.name == name; });
}

double metric_value(const PolicyReport& report, const std::string& name) {
  for (const NamedMetric& metric : kCatalog)
    if (metric.name == name) return metric.get(report);
  throw std::invalid_argument("metric_value: unknown metric '" + name + "'");
}

}  // namespace psched::metrics
