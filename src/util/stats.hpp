#pragma once
// Small descriptive-statistics toolkit: trace characterization (Figures
// 4-7), Jain's fairness index and the campaign aggregator's bootstrap
// intervals.

#include <cstddef>
#include <cstdint>
#include <span>

namespace psched::util {

/// Linear-interpolated percentile, q in [0, 1]. Empty input returns 0.
double percentile(std::span<const double> values, double q);

/// Spearman rank correlation: the Pearson correlation of the ranks, with
/// ties given their average rank. 0 if either side is degenerate (fewer than
/// two values, or all equal); throws std::invalid_argument on a size mismatch.
double spearman(std::span<const double> x, std::span<const double> y);

/// Jain's fairness index of a non-negative sample: (sum x)^2 / (n * sum x^2).
/// 1.0 means perfectly equal; 1/n means maximally concentrated.
double jain_fairness_index(std::span<const double> values);

/// Percentile-bootstrap confidence interval for the mean of a sample — the
/// campaign aggregator's building block for summarizing replicate seeds.
struct BootstrapCi {
  std::size_t count = 0;    ///< sample size (0 = empty input, all else zeroed)
  double mean = 0.0;        ///< sample mean (not the resample mean-of-means)
  double lo = 0.0;          ///< lower percentile bound of the resampled means
  double hi = 0.0;          ///< upper percentile bound
  double confidence = 0.0;  ///< echo of the requested level
  std::size_t resamples = 0;
};

/// Resample `values` with replacement `resamples` times, take the mean of
/// each resample, and return the (1-confidence)/2 .. 1-(1-confidence)/2
/// percentile band of those means. Deterministic given `seed` (all draws flow
/// through util::Rng). A single observation yields lo == hi == mean — one
/// replicate carries no spread information.
/// Throws std::invalid_argument for resamples == 0 or confidence outside
/// (0, 1).
BootstrapCi bootstrap_mean_ci(std::span<const double> values, std::size_t resamples,
                              double confidence, std::uint64_t seed);

}  // namespace psched::util
