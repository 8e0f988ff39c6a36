// Behaviour of the `easy` / PolicyKind::Easy spelling: aggressive
// backfilling, which make_scheduler builds as a depth-1 DepthScheduler. The
// suite keeps its EasyScheduler name so the test ids stay stable.

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

using test::make_job;
using test::make_workload;
using test::run_policy;

TEST(EasyScheduler, BackfillsAroundHeadReservation) {
  // Figure 2 scenario: jobB leaps forward because it finishes before the
  // head's reservation would start.
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 6),  // running until 100
                                          make_job(1, 50, 4),   // head: reserved at 100
                                          make_job(2, 50, 2),   // fits now and ends at ~52 < 100
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Easy);
  EXPECT_EQ(r.records[1].start, 100);
  EXPECT_EQ(r.records[2].start, 2);  // backfilled immediately on arrival
}

TEST(EasyScheduler, BackfillMayNotDelayHead) {
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 6),   // running until 100
                                          make_job(1, 60, 6),    // head: reserved [100, 160)
                                          make_job(2, 200, 3),   // 6+3 > 8 over [100, 160)
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Easy);
  EXPECT_EQ(r.records[1].start, 100);
  // J2 (3 nodes, 200 s) cannot start at t=2: its window [2, 202) overlaps
  // the head's reservation and 6 + 3 exceeds the machine.
  EXPECT_GE(r.records[2].start, 100);
}

TEST(EasyScheduler, HeadStartsAtReservationTime) {
  const Workload w = make_workload(4, {
                                          make_job(0, 100, 4),
                                          make_job(5, 10, 4),
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Easy);
  EXPECT_EQ(r.records[1].start, 100);  // woken by the reservation timer
}

TEST(EasyScheduler, WclOverestimateDelaysBackfillDecision) {
  // The head reservation is computed from the running job's WCL (200), not
  // its actual runtime (100): a 150 s backfill candidate fits before the
  // WCL-based reservation start.
  const Workload w = make_workload(8, {
                                          make_job(0, 100, 6, 0, /*wcl=*/200),
                                          make_job(1, 50, 4, 1),   // head reserved at wcl end 200
                                          make_job(2, 150, 2, 2),  // 2+150 < 200: backfills
                                      });
  const SimulationResult r = run_policy(w, PolicyKind::Easy);
  EXPECT_EQ(r.records[2].start, 2);
  // Head actually starts at 100 (early completion), not 200.
  EXPECT_EQ(r.records[1].start, 100);
}

TEST(EasyScheduler, InvariantsOnRandomTrace) {
  const Workload w = psched::workload::generate_small_workload(11, 300, 64, days(7));
  const SimulationResult r = run_policy(w, PolicyKind::Easy);
  test::expect_no_overallocation(r);
  test::expect_complete_and_causal(r);
}

}  // namespace
}  // namespace psched
