#include "core/runtime_limit.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "test_helpers.hpp"

namespace psched {
namespace {

using test::make_job;

TEST(RuntimeLimiter, DisabledPassesThrough) {
  const RuntimeLimiter limiter(kNoTime);
  EXPECT_FALSE(limiter.enabled());
  Job original = make_job(100, hours(200), 16);
  original.id = 7;
  EXPECT_EQ(limiter.segment_count(original), 1);
  const Job seg = limiter.make_segment(original, 0, 42, 100);
  EXPECT_EQ(seg.id, 42);
  EXPECT_EQ(seg.parent, 7);
  EXPECT_EQ(seg.runtime, hours(200));
  EXPECT_EQ(seg.segment_count, 1);
}

TEST(RuntimeLimiter, RejectsNonPositiveLimit) {
  EXPECT_THROW(RuntimeLimiter(0), std::invalid_argument);
  EXPECT_THROW(RuntimeLimiter(-7), std::invalid_argument);
}

TEST(RuntimeLimiter, SegmentCountCeiling) {
  const RuntimeLimiter limiter(hours(72));
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(72), 1)), 1);
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(72) + 1, 1)), 2);
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(144), 1)), 2);
  EXPECT_EQ(limiter.segment_count(make_job(0, hours(145), 1)), 3);
  EXPECT_EQ(limiter.segment_count(make_job(0, minutes(5), 1)), 1);
}

TEST(RuntimeLimiter, SegmentRuntimesSumToOriginal) {
  const RuntimeLimiter limiter(hours(72));
  Job original = make_job(0, hours(200), 8, 3, hours(250));
  original.id = 11;
  const std::int32_t count = limiter.segment_count(original);
  ASSERT_EQ(count, 3);
  Time total = 0;
  for (std::int32_t s = 0; s < count; ++s) {
    const Job seg = limiter.make_segment(original, s, s, 0);
    total += seg.runtime;
    EXPECT_LE(seg.runtime, hours(72));
    EXPECT_LE(seg.wcl, hours(72));
    EXPECT_GT(seg.wcl, 0);
    EXPECT_EQ(seg.parent, 11);
    EXPECT_EQ(seg.segment, s);
    EXPECT_EQ(seg.segment_count, 3);
    EXPECT_EQ(seg.nodes, 8);
    EXPECT_EQ(seg.user, 3);
  }
  EXPECT_EQ(total, hours(200));
}

TEST(RuntimeLimiter, WclChunking) {
  const RuntimeLimiter limiter(hours(72));
  const Job original = make_job(0, hours(80), 4, 0, hours(100));
  const Job seg0 = limiter.make_segment(original, 0, 0, 0);
  const Job seg1 = limiter.make_segment(original, 1, 1, 0);
  EXPECT_EQ(seg0.wcl, hours(72));
  EXPECT_EQ(seg1.wcl, hours(28));  // remaining estimate
  EXPECT_EQ(seg0.runtime, hours(72));
  EXPECT_EQ(seg1.runtime, hours(8));
}

TEST(RuntimeLimiter, UnderestimatedWclGetsFloor) {
  const RuntimeLimiter limiter(hours(72));
  // User estimated 10 h but the job runs 100 h: trailing segments still get
  // a sane minimum WCL.
  const Job original = make_job(0, hours(100), 2, 0, hours(10));
  const Job seg1 = limiter.make_segment(original, 1, 1, 0);
  EXPECT_GE(seg1.wcl, RuntimeLimiter::kMinSegmentWcl);
}

TEST(RuntimeLimiter, BadSegmentIndexThrows) {
  const RuntimeLimiter limiter(hours(72));
  const Job original = make_job(0, hours(100), 2);
  EXPECT_THROW(limiter.make_segment(original, -1, 0, 0), std::out_of_range);
  EXPECT_THROW(limiter.make_segment(original, 2, 0, 0), std::out_of_range);
}

TEST(RuntimeLimiter, NextSegmentChains) {
  const RuntimeLimiter limiter(hours(72));
  Job original = make_job(50, hours(150), 4);
  original.id = 5;
  const Job seg0 = limiter.make_segment(original, 0, 0, 50);
  const auto seg1 = limiter.next_segment(original, seg0, 1000, 1);
  ASSERT_TRUE(seg1.has_value());
  EXPECT_EQ(seg1->submit, 1000);
  EXPECT_EQ(seg1->segment, 1);
  const auto seg2 = limiter.next_segment(original, *seg1, 2000, 2);
  ASSERT_TRUE(seg2.has_value());
  EXPECT_FALSE(limiter.next_segment(original, *seg2, 3000, 3).has_value());
}

// The paper's preprocessing form of the limit: the engine submits every
// segment of every job at the original job's submit time (the default
// SegmentArrival::AtOriginalSubmit).

TEST(SplitWorkload, PreprocessingMode) {
  const Workload original = test::make_workload(
      64, {make_job(0, hours(100), 4), make_job(10, hours(10), 8), make_job(20, hours(300), 2)});
  sim::EngineConfig config;
  config.policy.max_runtime = hours(72);
  const SimulationResult r = sim::simulate(original, config);
  // 100h -> 2 segments, 10h -> 1, 300h -> 5.
  EXPECT_EQ(r.records.size(), 8u);
  ASSERT_EQ(r.segments_of_original.size(), 3u);
  double split_work = 0.0;
  for (std::size_t o = 0; o < original.jobs.size(); ++o) {
    for (const JobId id : r.segments_of_original[o]) {
      const Job& seg = r.records[static_cast<std::size_t>(id)].job;
      EXPECT_LE(seg.runtime, hours(72));
      EXPECT_EQ(seg.submit, original.jobs[o].submit);
      split_work += seg.proc_seconds();
    }
  }
  EXPECT_EQ(r.segments_of_original[2].size(), 5u);
  EXPECT_DOUBLE_EQ(split_work, original.total_proc_seconds());
}

TEST(SplitWorkload, NoopWithoutLongJobs) {
  const Workload original =
      test::make_workload(64, {make_job(0, hours(10), 4), make_job(5, hours(72), 8)});
  sim::EngineConfig config;
  config.policy.max_runtime = hours(72);
  const SimulationResult r = sim::simulate(original, config);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].job.runtime, original.jobs[0].runtime);
}

}  // namespace
}  // namespace psched
