#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace psched::util {

namespace {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

/// Pearson correlation of two samples of one size >= 2; 0 if either side is
/// degenerate.
double pearson(std::span<const double> x, std::span<const double> y) {
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

/// Ranks with ties averaged (1-based).
std::vector<double> average_ranks(std::span<const double> values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Average 1-based rank over the tie group [i, j].
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q outside [0,1]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double spearman(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("spearman: size mismatch");
  if (x.size() < 2) return 0.0;
  const std::vector<double> rx = average_ranks(x);
  const std::vector<double> ry = average_ranks(y);
  return pearson(rx, ry);
}

double jain_fairness_index(std::span<const double> values) {
  if (values.empty()) return 1.0;
  double sum = 0.0, sumsq = 0.0;
  for (const double v : values) {
    if (v < 0.0) throw std::invalid_argument("jain_fairness_index: negative value");
    sum += v;
    sumsq += v * v;
  }
  if (sumsq == 0.0) return 1.0;  // all zero: trivially equal
  return (sum * sum) / (static_cast<double>(values.size()) * sumsq);
}

BootstrapCi bootstrap_mean_ci(std::span<const double> values, std::size_t resamples,
                              double confidence, std::uint64_t seed) {
  if (resamples == 0) throw std::invalid_argument("bootstrap_mean_ci: resamples == 0");
  if (!(confidence > 0.0 && confidence < 1.0))
    throw std::invalid_argument("bootstrap_mean_ci: confidence outside (0, 1)");
  BootstrapCi ci;
  ci.count = values.size();
  ci.confidence = confidence;
  ci.resamples = resamples;
  if (values.empty()) return ci;
  ci.mean = mean(values);
  if (values.size() == 1) {
    ci.lo = ci.hi = ci.mean;
    return ci;
  }
  Rng rng(seed);
  const auto n = static_cast<std::int64_t>(values.size());
  std::vector<double> means(resamples, 0.0);
  for (double& m : means) {
    double acc = 0.0;
    for (std::int64_t draw = 0; draw < n; ++draw)
      acc += values[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    m = acc / static_cast<double>(n);
  }
  const double alpha = (1.0 - confidence) / 2.0;
  ci.lo = percentile(means, alpha);
  ci.hi = percentile(means, 1.0 - alpha);
  return ci;
}

}  // namespace psched::util
