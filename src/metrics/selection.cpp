#include "metrics/selection.hpp"

#include <functional>
#include <map>
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

using Getter = std::function<double(const PolicyReport&)>;

// The catalog plus the per-width families of Figures 10/12/16/18:
// avg_miss_w<k> and avg_turnaround_w<k> for each width category k of
// core/categories.hpp, generated here so no bin is spelled out by hand.
const std::map<std::string, Getter>& metrics_by_name() {
  static const std::map<std::string, Getter> all = [] {
    std::map<std::string, Getter> named;
    for (const NamedMetric& metric : kCatalog) named.emplace(metric.name, metric.get);
    for (std::size_t w = 0; w < static_cast<std::size_t>(kWidthCategories); ++w) {
      named.emplace("avg_miss_w" + std::to_string(w),
                    [w](const PolicyReport& r) { return r.fairness.avg_miss_by_width[w]; });
      named.emplace("avg_turnaround_w" + std::to_string(w),
                    [w](const PolicyReport& r) { return r.standard.avg_turnaround_by_width[w]; });
    }
    return named;
  }();
  return all;
}
}  // namespace

bool is_metric_name(const std::string& name) { return metrics_by_name().count(name) != 0; }

double metric_value(const PolicyReport& report, const std::string& name) {
  const auto it = metrics_by_name().find(name);
  if (it == metrics_by_name().end())
    throw std::invalid_argument("metric_value: unknown metric '" + name + "'");
  return it->second(report);
}

}  // namespace psched::metrics
