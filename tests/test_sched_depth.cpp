#include "core/depth_scheduler.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using test::make_job;
using test::make_workload;

SimulationResult run_depth(const Workload& w, int depth,
                           PriorityKind priority = PriorityKind::Fcfs) {
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::Depth;
  config.policy.reservation_depth = depth;
  config.policy.priority = priority;
  return sim::simulate(w, config);
}

TEST(DepthScheduler, RejectsBadDepth) {
  EXPECT_THROW(DepthScheduler(DepthConfig{PriorityKind::Fcfs, 0}), std::invalid_argument);
}

TEST(DepthScheduler, DeeperReservationsProtectMoreJobs) {
  // Two blocked jobs. The long backfiller J3 threads around J1's reservation
  // (6+2 = 8 fits) but would collide with J2's (7+2 > 8). At depth 1 only
  // the first blocked job is ever reserved, so J3 backfills at t=3 and
  // pushes J2 out past t=400; at depth 2, J2's reservation blocks J3.
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 4),  // running until 100
                                          make_job(1, 50, 6),   // blocked: reserved [100,150)
                                          make_job(2, 60, 7),   // blocked: depth-2 res [150,210)
                                          make_job(3, 400, 2),  // long narrow backfiller
                                      });
  const SimulationResult d1 = run_depth(w, 1);
  const SimulationResult d2 = run_depth(w, 2);
  // Depth 1: J3 starts immediately and starves J2 until J3 completes at 403.
  EXPECT_EQ(d1.records[3].start, 3);
  EXPECT_GE(d1.records[2].start, 400);
  // Depth 2: J2 is protected; J3 waits behind both reservations.
  EXPECT_EQ(d2.records[2].start, 150);
  EXPECT_EQ(d2.records[3].start, 210);
}

TEST(DepthScheduler, LargeDepthApproachesDynamicConservative) {
  const Workload w = psched::workload::generate_small_workload(91, 200, 48, days(5));
  const SimulationResult deep = run_depth(w, 1'000'000, PriorityKind::Fairshare);
  sim::EngineConfig config;
  config.policy.kind = PolicyKind::ConservativeDynamic;
  const SimulationResult consdyn = sim::simulate(w, config);
  // Not necessarily identical schedules (consdyn launches at replanned
  // reservations; depth starts greedily), but both must be valid and close
  // in aggregate.
  test::expect_no_overallocation(deep);
  test::expect_complete_and_causal(deep);
  double deep_wait = 0.0, consdyn_wait = 0.0;
  for (std::size_t i = 0; i < deep.records.size(); ++i) {
    deep_wait += static_cast<double>(deep.records[i].wait());
    consdyn_wait += static_cast<double>(consdyn.records[i].wait());
  }
  EXPECT_LT(deep_wait, consdyn_wait * 2.0 + 1.0);
}

TEST(DepthScheduler, NameIncludesDepth) {
  EXPECT_EQ(DepthScheduler(DepthConfig{PriorityKind::Fairshare, 4}).name(), "depth4");
  EXPECT_EQ(DepthScheduler(DepthConfig{PriorityKind::Fcfs, 16}).name(), "depth16.fcfs");
  PolicyConfig c;
  c.kind = PolicyKind::Depth;
  c.reservation_depth = 8;
  EXPECT_EQ(c.display_name(), "depth8.nomax");
}

TEST(DepthScheduler, InvariantsAcrossDepths) {
  const Workload w = psched::workload::generate_small_workload(97, 250, 64, days(6));
  for (const int depth : {1, 2, 8, 64}) {
    const SimulationResult r = run_depth(w, depth, PriorityKind::Fairshare);
    test::expect_no_overallocation(r);
    test::expect_complete_and_causal(r);
  }
}

}  // namespace
}  // namespace psched
