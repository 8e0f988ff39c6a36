#include "metrics/breakdowns.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::metrics {
namespace {

using test::make_job;
using test::make_workload;
using test::run_policy;

TEST(UserBreakdown, SortsHeaviestFirst) {
  const Workload w = make_workload(8, {
                                          make_job(0, hours(10), 8, /*user=*/3),  // heavy
                                          make_job(0, minutes(10), 1, /*user=*/1),
                                          make_job(10, minutes(10), 1, /*user=*/1),
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Fcfs);
  const auto users = user_breakdown(r);
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0].user, 3);
  EXPECT_EQ(users[0].jobs, 1u);
  EXPECT_EQ(users[1].user, 1);
  EXPECT_EQ(users[1].jobs, 2u);
  EXPECT_GT(users[0].proc_seconds, users[1].proc_seconds);
}

TEST(UserBreakdown, UnfairFractionWithFst) {
  const Workload w = psched::workload::generate_small_workload(103, 200, 32, days(4));
  const SimulationResult r = run_policy(w, PolicyKind::Cplant, PriorityKind::Fairshare);
  const FstResult fst = hybrid_fairshare_fst(r);
  const auto users = user_breakdown(r, &fst, /*tolerance=*/1);
  std::size_t jobs = 0;
  for (const UserSummary& u : users) {
    jobs += u.jobs;
    EXPECT_GE(u.unfair_fraction, 0.0);
    EXPECT_LE(u.unfair_fraction, 1.0);
  }
  EXPECT_EQ(jobs, r.records.size());
}

}  // namespace
}  // namespace psched::metrics
