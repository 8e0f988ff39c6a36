#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace psched::util {
namespace {

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile(empty, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(spearman(empty, empty), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_THROW(percentile(v, 1.5), std::invalid_argument);
}

TEST(Stats, PearsonPerfectCorrelation) {
  // spearman is the Pearson correlation of the ranks: on distinct values the
  // ranks are 1..n, so these pin the Pearson formula itself.
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(spearman(x, std::vector<double>{2.0, 4.0, 6.0, 8.0, 10.0}), 1.0, 1e-12);
  EXPECT_NEAR(spearman(x, std::vector<double>{10.0, 8.0, 6.0, 4.0, 2.0}), -1.0, 1e-12);
  // Ranks {2,1,4,3,5}: sxy = 8, sxx = syy = 10.
  EXPECT_NEAR(spearman(x, std::vector<double>{20.0, 10.0, 40.0, 30.0, 50.0}), 0.8, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  // One side constant: its ranks all tie, so it has no spread.
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(spearman(x, y), 0.0);
  EXPECT_DOUBLE_EQ(spearman(y, x), 0.0);
  EXPECT_DOUBLE_EQ(spearman(std::vector<double>{1.0}, std::vector<double>{2.0}), 0.0);
  EXPECT_THROW(spearman(x, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Stats, SpearmanMonotonicNonlinear) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y{1.0, 8.0, 27.0, 64.0, 125.0};  // monotone, nonlinear
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, AverageRanksHandleTies) {
  // The tied 20s share rank 2.5: x ranks {1, 2.5, 2.5, 4} against y ranks
  // {1, 2, 3, 4} give sxy = 4.5, sxx = 4.5, syy = 5. Ranking the tie 2, 3
  // would give 1.0, and giving both rank 2 would give 4.5 / sqrt(23.75).
  const std::vector<double> x{10.0, 20.0, 20.0, 30.0};
  const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(spearman(x, y), 4.5 / std::sqrt(22.5), 1e-12);
  // Ties in the second argument are ranked the same way.
  EXPECT_NEAR(spearman(y, x), 4.5 / std::sqrt(22.5), 1e-12);
}

TEST(Stats, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<double>{1.0, 1.0, 1.0, 1.0}), 1.0);
  // Fully concentrated: index = 1/n.
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<double>{4.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<double>{}), 1.0);
  EXPECT_THROW(jain_fairness_index(std::vector<double>{-1.0}), std::invalid_argument);
}

TEST(Bootstrap, DeterministicGivenSeed) {
  const std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const BootstrapCi a = bootstrap_mean_ci(v, 500, 0.95, 42);
  const BootstrapCi b = bootstrap_mean_ci(v, 500, 0.95, 42);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  // A different stream gives a (slightly) different band — the seed is live.
  const BootstrapCi c = bootstrap_mean_ci(v, 500, 0.95, 43);
  EXPECT_TRUE(c.lo != a.lo || c.hi != a.hi);
}

TEST(Bootstrap, BandBracketsTheMeanAndStaysInRange) {
  const std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const BootstrapCi ci = bootstrap_mean_ci(v, 2000, 0.95, 7);
  EXPECT_EQ(ci.count, v.size());
  EXPECT_DOUBLE_EQ(ci.mean, 31.0 / 8.0);  // the sample mean
  EXPECT_LE(ci.lo, ci.mean);
  EXPECT_GE(ci.hi, ci.mean);
  // Resampled means can never leave the sample's range.
  EXPECT_GE(ci.lo, 1.0);
  EXPECT_LE(ci.hi, 9.0);
  EXPECT_LT(ci.lo, ci.hi);
}

TEST(Bootstrap, HigherConfidenceWidensTheBand) {
  const std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0};
  const BootstrapCi narrow = bootstrap_mean_ci(v, 2000, 0.5, 11);
  const BootstrapCi wide = bootstrap_mean_ci(v, 2000, 0.99, 11);
  EXPECT_LT(wide.lo, narrow.lo);
  EXPECT_GT(wide.hi, narrow.hi);
}

TEST(Bootstrap, DegenerateInputs) {
  const BootstrapCi empty = bootstrap_mean_ci(std::vector<double>{}, 100, 0.95, 1);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 0.0);
  // One replicate carries no spread information: lo == hi == mean.
  const BootstrapCi single = bootstrap_mean_ci(std::vector<double>{42.0}, 100, 0.95, 1);
  EXPECT_EQ(single.count, 1u);
  EXPECT_DOUBLE_EQ(single.mean, 42.0);
  EXPECT_DOUBLE_EQ(single.lo, 42.0);
  EXPECT_DOUBLE_EQ(single.hi, 42.0);
  // Constant sample: every resample mean is the constant.
  const BootstrapCi constant =
      bootstrap_mean_ci(std::vector<double>{5.0, 5.0, 5.0}, 100, 0.95, 1);
  EXPECT_DOUBLE_EQ(constant.lo, 5.0);
  EXPECT_DOUBLE_EQ(constant.hi, 5.0);
}

TEST(Bootstrap, RejectsNonsenseParameters) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(bootstrap_mean_ci(v, 0, 0.95, 1), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(v, 100, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(v, 100, 1.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace psched::util
