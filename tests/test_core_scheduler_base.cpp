// Tests of the Scheduler base-class helpers (running-job profile
// construction) and of the seed priority-order oracle the WaitQueue is
// checked against, through a minimal fixture context.

#include <gtest/gtest.h>

#include <map>

#include "core/scheduler.hpp"
#include "oracles/priority_order.hpp"
#include "test_helpers.hpp"

namespace psched {
namespace {

using test::make_job;

/// Minimal SchedulerContext with directly settable state.
class FakeContext final : public SchedulerContext {
 public:
  Time now() const override { return now_; }
  NodeCount total_nodes() const override { return total_; }
  NodeCount free_nodes() const override { return free_; }
  const Job& job(JobId id) const override { return jobs_.at(static_cast<std::size_t>(id)); }
  const std::vector<RunningView>& running() const override { return running_; }
  double user_usage(UserId user) const override {
    const auto it = usage_.find(user);
    return it == usage_.end() ? 0.0 : it->second;
  }
  double mean_positive_usage() const override {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& [user, value] : usage_)
      if (value > 0.0) {
        total += value;
        ++n;
      }
    return n ? total / static_cast<double>(n) : 0.0;
  }

  Time now_ = 0;
  NodeCount total_ = 16;
  NodeCount free_ = 16;
  std::vector<Job> jobs_;
  std::vector<RunningView> running_;
  std::map<UserId, double> usage_;
};

/// Expose the protected helpers for testing.
class ProbeScheduler final : public Scheduler {
 public:
  std::string name() const override { return "probe"; }
  void on_submit(JobId) override {}
  void on_complete(JobId) override {}
  void collect_starts(std::vector<JobId>&) override {}

  using Scheduler::seed_running_usage;
};

using reference::priority_less;
using reference::sorted_by_priority;

class SchedulerBaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_.jobs_.push_back(make_job(10, 100, 2, /*user=*/0));  // id 0
    ctx_.jobs_.push_back(make_job(20, 100, 2, /*user=*/1));  // id 1
    ctx_.jobs_.push_back(make_job(20, 100, 2, /*user=*/2));  // id 2 (tie with 1)
    for (std::size_t i = 0; i < ctx_.jobs_.size(); ++i)
      ctx_.jobs_[i].id = static_cast<JobId>(i);
    probe_.attach(ctx_);
  }

  FakeContext ctx_;
  ProbeScheduler probe_;
};

TEST_F(SchedulerBaseTest, UnattachedSchedulerThrows) {
  ProbeScheduler detached;
  Profile profile(4, 0);
  EXPECT_THROW(detached.seed_running_usage(profile), std::logic_error);
}

TEST_F(SchedulerBaseTest, FcfsPriorityOrdersBySubmitThenId) {
  const auto order = sorted_by_priority(ctx_, {2, 1, 0}, PriorityKind::Fcfs);
  EXPECT_EQ(order, (std::vector<JobId>{0, 1, 2}));
}

TEST_F(SchedulerBaseTest, FairsharePriorityOrdersByUsage) {
  ctx_.usage_[0] = 5000.0;  // user 0 heavy
  ctx_.usage_[1] = 10.0;
  ctx_.usage_[2] = 100.0;
  const auto order = sorted_by_priority(ctx_, {0, 1, 2}, PriorityKind::Fairshare);
  EXPECT_EQ(order, (std::vector<JobId>{1, 2, 0}));
}

TEST_F(SchedulerBaseTest, FairshareTiesFallBackToSubmit) {
  // All users unknown (usage 0): fairshare degenerates to FCFS.
  const auto order = sorted_by_priority(ctx_, {2, 0, 1}, PriorityKind::Fairshare);
  EXPECT_EQ(order, (std::vector<JobId>{0, 1, 2}));
}

TEST_F(SchedulerBaseTest, PriorityLessIsStrictWeakOrdering) {
  ctx_.usage_[0] = 1.0;
  ctx_.usage_[1] = 1.0;
  const Job& a = ctx_.job(0);
  const Job& b = ctx_.job(1);
  EXPECT_FALSE(priority_less(ctx_, a, a, PriorityKind::Fairshare));
  EXPECT_NE(priority_less(ctx_, a, b, PriorityKind::Fairshare),
            priority_less(ctx_, b, a, PriorityKind::Fairshare));
}

TEST_F(SchedulerBaseTest, RunningProfileUsesEstimatedEnds) {
  ctx_.now_ = 100;
  ctx_.running_.push_back({0, 4, 50, 150});   // ends (per WCL) at 150
  ctx_.running_.push_back({1, 8, 10, 90});    // over-running: est_end < now
  Profile profile(ctx_.total_nodes(), ctx_.now_);
  probe_.seed_running_usage(profile);
  // At "now" both jobs occupy nodes (the over-runner is clamped forward).
  EXPECT_EQ(profile.free_at(100), 16 - 4 - 8);
  // After 150 only the over-runner's grace extension can remain.
  EXPECT_GE(profile.free_at(10'000), 12);
}

TEST_F(SchedulerBaseTest, OverrunGraceGrowsWithElapsedOverrun) {
  // The longer a job has over-run, the further out the profile assumes it
  // will run (exponential-backoff style), keeping timer storms bounded.
  ctx_.now_ = 10'000;
  ctx_.running_.push_back({0, 4, 0, 1'000});  // over-run by 9000 s
  Profile profile(ctx_.total_nodes(), ctx_.now_);
  probe_.seed_running_usage(profile);
  EXPECT_LT(profile.free_at(10'000 + 8'000), 16);  // still assumed busy
  EXPECT_EQ(profile.free_at(10'000 + 10'000), 16); // released by then
}

}  // namespace
}  // namespace psched
