#include "core/fairshare.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace psched {
namespace {

constexpr Time kDay = days(1);

TEST(Fairshare, RejectsBadParameters) {
  EXPECT_THROW(FairshareTracker(0.0, kDay), std::invalid_argument);
  EXPECT_THROW(FairshareTracker(1.5, kDay), std::invalid_argument);
  EXPECT_THROW(FairshareTracker(0.5, 0), std::invalid_argument);
}

// With decay 1.0 the value published at a boundary is exactly the usage
// accrued up to it, so usage() read at a boundary observes accrual.

TEST(Fairshare, AccruesProcessorSeconds) {
  FairshareTracker t(1.0, kDay);
  t.on_job_start(0, 4);
  t.advance(100);
  t.on_job_stop(0, 4);
  t.advance(kDay);
  EXPECT_DOUBLE_EQ(t.usage(0), 400.0);
  t.advance(2 * kDay);
  EXPECT_DOUBLE_EQ(t.usage(0), 400.0);  // nothing running, no accrual
}

TEST(Fairshare, MultipleUsersAccrueIndependently) {
  FairshareTracker t(1.0, kDay);
  t.on_job_start(0, 2);
  t.on_job_start(1, 6);
  t.advance(50);
  t.on_job_stop(1, 6);
  t.advance(kDay);
  EXPECT_DOUBLE_EQ(t.usage(0), static_cast<double>(2 * kDay));
  EXPECT_DOUBLE_EQ(t.usage(1), 300.0);
}

TEST(Fairshare, DecayAtBoundary) {
  FairshareTracker t(0.5, kDay);
  t.on_job_start(0, 1);
  t.advance(kDay);  // accrues kDay proc-seconds, then halves
  EXPECT_DOUBLE_EQ(t.usage(0), static_cast<double>(kDay) * 0.5);
  t.on_job_stop(0, 1);
  t.advance(3 * kDay);  // two more boundaries, no accrual
  EXPECT_DOUBLE_EQ(t.usage(0), static_cast<double>(kDay) * 0.125);
}

TEST(Fairshare, DecayBoundariesAlignedToGrid) {
  // Start mid-day: the first boundary is the next grid point, not start+24h.
  FairshareTracker t(0.5, kDay, kDay / 2);
  t.on_job_start(0, 1);
  t.advance(kDay);  // half a day accrued, then decay
  EXPECT_DOUBLE_EQ(t.usage(0), static_cast<double>(kDay / 2) * 0.5);
}

TEST(Fairshare, SplitAdvanceEqualsOneAdvance) {
  // Read at a publish boundary, so the usage published there includes the
  // accrual of every split step.
  FairshareTracker a(0.7, kDay);
  FairshareTracker b(0.7, kDay);
  a.on_job_start(3, 5);
  b.on_job_start(3, 5);
  a.advance(6 * kDay);
  for (Time step = 0; step <= 6 * kDay; step += 7777) b.advance(step);
  b.advance(6 * kDay);
  EXPECT_GT(a.usage(3), 0.0);
  EXPECT_NEAR(a.usage(3), b.usage(3), 1e-6);
}

TEST(Fairshare, PublishedValueOnlyRefreshesAtBoundary) {
  FairshareTracker t(0.5, kDay);
  t.on_job_start(0, 2);
  t.advance(1000);
  EXPECT_DOUBLE_EQ(t.usage(0), 0.0);  // priority not refreshed yet
  t.advance(kDay);
  EXPECT_DOUBLE_EQ(t.usage(0), static_cast<double>(2 * kDay) * 0.5);
}

TEST(Fairshare, TimeBackwardsThrows) {
  FairshareTracker t(0.5, kDay);
  t.advance(100);
  EXPECT_THROW(t.advance(50), std::logic_error);
}

TEST(Fairshare, StopMoreThanRunningThrows) {
  FairshareTracker t(0.5, kDay);
  t.on_job_start(0, 2);
  EXPECT_THROW(t.on_job_stop(0, 3), std::logic_error);
  EXPECT_THROW(t.on_job_stop(1, 1), std::logic_error);
}

TEST(Fairshare, MeanPositiveUsage) {
  FairshareTracker t(1.0, kDay);
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 0.0);
  t.on_job_start(0, 10);
  t.on_job_start(2, 30);
  t.advance(10);
  t.on_job_stop(0, 10);
  t.on_job_stop(2, 30);
  t.advance(kDay);
  // users 0 and 2 have usage 100 and 300; user 1 has none.
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 200.0);
}

TEST(Fairshare, MeanPositiveUsageIsPublishedAtBoundaries) {
  FairshareTracker t(0.5, kDay);
  t.on_job_start(0, 10);
  t.on_job_start(2, 30);
  t.advance(kDay - 1);
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 0.0);  // nothing published yet
  t.advance(kDay);
  // Published: 0.5 x (10 and 30 nodes x one day); user 1 has none.
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 0.5 * static_cast<double>(20 * kDay));
  t.on_job_start(5, 100);  // live accrual alone does not move the mean
  t.advance(kDay + 500);
  EXPECT_DOUBLE_EQ(t.mean_positive_usage(), 0.5 * static_cast<double>(20 * kDay));
}

/// usage() of every user seen so far, in user order.
std::vector<double> all_usages(const FairshareTracker& t) {
  std::vector<double> out;
  for (UserId u = 0; u < 8; ++u) out.push_back(t.usage(u));
  return out;
}

TEST(Fairshare, EpochMovesExactlyWhenUsageCanChange) {
  // usage() is the published value, so the epoch moves at each publish
  // boundary and nowhere else: not on job start/stop, not on accrual between
  // boundaries, not on a new user.
  FairshareTracker t(0.5, kDay);
  std::uint64_t epoch = t.epoch();
  std::vector<double> usages = all_usages(t);
  const auto step = [&](Time to, bool boundary) {
    t.advance(to);
    const bool moved = t.epoch() != epoch;
    EXPECT_EQ(moved, boundary) << "advance to " << to;
    if (!moved) {
      EXPECT_EQ(all_usages(t), usages) << "usage moved without the epoch";
    }
    epoch = t.epoch();
    usages = all_usages(t);
  };
  t.on_job_start(0, 4);
  step(1000, false);
  t.on_job_start(3, 2);  // a user the tracker has not seen yet
  EXPECT_EQ(t.epoch(), epoch);
  step(kDay - 1, false);
  step(kDay, true);
  t.on_job_stop(0, 4);
  EXPECT_EQ(t.epoch(), epoch);
  step(kDay + 600, false);
  step(3 * kDay + 5, true);  // crossing two boundaries moves it too
}

TEST(Fairshare, UnknownUsersAreZero) {
  FairshareTracker t(0.5, kDay);
  EXPECT_DOUBLE_EQ(t.usage(7), 0.0);
  EXPECT_DOUBLE_EQ(t.usage(-1), 0.0);
}

TEST(Fairshare, NoDecayFactorOne) {
  FairshareTracker t(1.0, kDay);
  t.on_job_start(0, 1);
  t.advance(10 * kDay);
  EXPECT_DOUBLE_EQ(t.usage(0), static_cast<double>(10 * kDay));
}

}  // namespace
}  // namespace psched
