#include "oracles/priority_order.hpp"

#include <algorithm>

namespace psched::reference {

bool priority_less(const SchedulerContext& ctx, const Job& a, const Job& b, PriorityKind kind) {
  if (kind == PriorityKind::Fairshare) {
    const double ua = ctx.user_usage(a.user);
    const double ub = ctx.user_usage(b.user);
    if (ua != ub) return ua < ub;  // lower decayed usage goes first
  }
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

std::vector<JobId> sorted_by_priority(const SchedulerContext& ctx, std::vector<JobId> ids,
                                      PriorityKind kind) {
  // Decorate-sort-undecorate: one context/job lookup per id instead of two
  // virtual calls per comparison. Key order mirrors priority_less exactly.
  struct Key {
    double usage;
    Time submit;
    JobId id;
  };
  std::vector<Key> keys;
  keys.reserve(ids.size());
  for (const JobId id : ids) {
    const Job& job = ctx.job(id);
    keys.push_back({kind == PriorityKind::Fairshare ? ctx.user_usage(job.user) : 0.0,
                    job.submit, id});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.usage != b.usage) return a.usage < b.usage;
    if (a.submit != b.submit) return a.submit < b.submit;
    return a.id < b.id;
  });
  for (std::size_t i = 0; i < keys.size(); ++i) ids[i] = keys[i].id;
  return ids;
}

}  // namespace psched::reference
