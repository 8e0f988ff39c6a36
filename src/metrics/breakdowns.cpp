#include "metrics/breakdowns.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace psched::metrics {

std::vector<UserSummary> user_breakdown(const SimulationResult& result, const FstResult* fst,
                                        Time tolerance) {
  if (fst != nullptr && fst->miss.size() != result.records.size())
    throw std::invalid_argument("user_breakdown: fst does not match result");
  struct Accumulator {
    std::size_t jobs = 0;
    double proc_seconds = 0.0;
    double wait_sum = 0.0;
    double miss_sum = 0.0;
    std::size_t unfair = 0;
  };
  std::map<UserId, Accumulator> by_user;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const JobRecord& record = result.records[i];
    Accumulator& acc = by_user[record.job.user];
    ++acc.jobs;
    acc.proc_seconds += record.job.proc_seconds();
    acc.wait_sum += static_cast<double>(record.wait());
    if (fst != nullptr) {
      acc.miss_sum += static_cast<double>(fst->miss[i]);
      if (fst->miss[i] > tolerance) ++acc.unfair;
    }
  }
  std::vector<UserSummary> summaries;
  summaries.reserve(by_user.size());
  for (const auto& [user, acc] : by_user) {
    UserSummary s;
    s.user = user;
    s.jobs = acc.jobs;
    s.proc_seconds = acc.proc_seconds;
    const auto n = static_cast<double>(acc.jobs);
    s.avg_wait = acc.wait_sum / n;
    s.avg_miss = acc.miss_sum / n;
    s.unfair_fraction = static_cast<double>(acc.unfair) / n;
    summaries.push_back(s);
  }
  std::sort(summaries.begin(), summaries.end(), [](const UserSummary& a, const UserSummary& b) {
    if (a.proc_seconds != b.proc_seconds) return a.proc_seconds > b.proc_seconds;
    return a.user < b.user;
  });
  return summaries;
}

}  // namespace psched::metrics
