#include "workload/transform.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "workload/generator.hpp"

namespace psched::workload {
namespace {

using test::make_job;
using test::make_workload;

Workload sample() {
  return make_workload(32, {
                               make_job(0, 100, 4, 0),
                               make_job(1000, 200, 8, 1),
                               make_job(2000, 300, 16, 0),
                               make_job(3000, 400, 2, 2),
                           });
}

TEST(Transform, RescaleLoadCompresses) {
  const Workload fast = rescale_load(sample(), 2.0);
  EXPECT_EQ(fast.jobs[0].submit, 0);
  EXPECT_EQ(fast.jobs[1].submit, 500);
  EXPECT_EQ(fast.jobs[3].submit, 1500);
  // Runtimes untouched.
  EXPECT_EQ(fast.jobs[1].runtime, 200);
  EXPECT_THROW(rescale_load(sample(), 0.0), std::invalid_argument);
}

TEST(Transform, RescaleLoadStretches) {
  const Workload slow = rescale_load(sample(), 0.5);
  EXPECT_EQ(slow.jobs[1].submit, 2000);
  EXPECT_EQ(slow.jobs[3].submit, 6000);
}

TEST(Transform, WithEstimateFactor) {
  const Workload perfect = with_estimate_factor(sample(), 1.0);
  for (const Job& job : perfect.jobs) EXPECT_EQ(job.wcl, job.runtime);
  const Workload doubled = with_estimate_factor(sample(), 2.0);
  for (const Job& job : doubled.jobs) EXPECT_EQ(job.wcl, job.runtime * 2);
  EXPECT_THROW(with_estimate_factor(sample(), 0.5), std::invalid_argument);
}

TEST(Transform, HeadTakesPrefix) {
  const Workload first2 = head(sample(), 2);
  ASSERT_EQ(first2.jobs.size(), 2u);
  EXPECT_EQ(first2.jobs[1].submit, 1000);
  EXPECT_EQ(head(sample(), 100).jobs.size(), 4u);
  EXPECT_TRUE(head(sample(), 0).jobs.empty());
}

TEST(Transform, TransformsCompose) {
  const Workload big = generate_small_workload(2, 500, 64, days(10));
  // The campaign order: head, then rescale_load, then estimate_factor.
  const Workload composed = with_estimate_factor(rescale_load(head(big, 300), 1.5), 2.0);
  EXPECT_NO_THROW(composed.validate());
  ASSERT_EQ(composed.jobs.size(), 300u);
  EXPECT_EQ(composed.jobs.back().wcl, composed.jobs.back().runtime * 2);
}

}  // namespace
}  // namespace psched::workload
