#pragma once
// Deterministic random sources and the distributions the workload generator
// needs. All randomness in the project flows through Rng so that a single
// seed reproduces every experiment bit-for-bit.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace psched::util {

/// Seeded wrapper around std::mt19937_64 with the distribution helpers used
/// throughout the project. Copyable (simulation snapshots fork streams).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child stream; (seed, salt) pairs map to distinct
  /// well-mixed states via splitmix64.
  Rng fork(std::uint64_t salt) const;

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform in [0, 1).
  double uniform01() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform in [lo, hi] (inclusive), requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform in [lo, hi), requires lo < hi.
  double uniform_real(double lo, double hi);

  /// Log-uniform in [lo, hi], requires 0 < lo <= hi. Models scale-free sizes.
  double log_uniform(double lo, double hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal.
  double normal(double mean, double sigma);

  /// Bernoulli.
  bool flip(double p_true) { return uniform01() < p_true; }

  /// Index drawn from unnormalized non-negative weights (at least one > 0).
  std::size_t categorical(std::span<const double> weights);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// splitmix64 hash step; used for stable stream derivation.
std::uint64_t splitmix64(std::uint64_t x);

/// Zipf-like weights: weight[i] = 1 / (i+1)^s, i in [0, n).
std::vector<double> zipf_weights(std::size_t n, double s);

}  // namespace psched::util
