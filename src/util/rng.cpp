#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace psched::util {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng Rng::fork(std::uint64_t salt) const {
  // Mix the current engine state hash with the salt; copying engine_ then
  // discarding would correlate streams, so reseed through splitmix64.
  std::mt19937_64 probe = engine_;
  const std::uint64_t state_digest = probe();
  return Rng(splitmix64(state_digest ^ splitmix64(salt)));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::uniform_real(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("Rng::uniform_real: lo >= hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::log_uniform(double lo, double hi) {
  if (!(lo > 0.0) || lo > hi) throw std::invalid_argument("Rng::log_uniform: need 0 < lo <= hi");
  if (lo == hi) return lo;
  const double u = uniform_real(std::log(lo), std::log(hi));
  return std::exp(u);
}

double Rng::exponential(double mean) {
  if (!(mean > 0.0)) throw std::invalid_argument("Rng::exponential: mean must be > 0");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::normal(double mean, double sigma) {
  return std::normal_distribution<double>(mean, sigma)(engine_);
}

std::size_t Rng::categorical(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Rng::categorical: negative weight");
    total += w;
  }
  if (!(total > 0.0)) throw std::invalid_argument("Rng::categorical: all weights zero");
  double mark = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    mark -= weights[i];
    if (mark < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: mark consumed by rounding
}

std::vector<double> zipf_weights(std::size_t n, double s) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  return w;
}

}  // namespace psched::util
