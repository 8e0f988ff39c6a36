#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace psched::util {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.size() < 2) throw std::invalid_argument("Histogram: need at least 2 edges");
  if (!std::is_sorted(edges_.begin(), edges_.end()))
    throw std::invalid_argument("Histogram: edges must be sorted");
  counts_.assign(edges_.size() - 1, 0.0);
}

void Histogram::add(double value, double weight) {
  if (value < edges_.front()) {
    underflow_ += weight;
    return;
  }
  if (value >= edges_.back()) {
    overflow_ += weight;
    return;
  }
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  const auto idx = static_cast<std::size_t>(std::distance(edges_.begin(), it)) - 1;
  counts_[idx] += weight;
}

double Histogram::total() const {
  return std::accumulate(counts_.begin(), counts_.end(), 0.0) + underflow_ + overflow_;
}

std::vector<double> log_edges(double lo, double hi, std::size_t n_bins) {
  if (!(lo > 0.0) || !(hi > lo) || n_bins == 0)
    throw std::invalid_argument("log_edges: need 0 < lo < hi, n_bins > 0");
  std::vector<double> edges(n_bins + 1);
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i <= n_bins; ++i)
    edges[i] = std::pow(10.0, llo + (lhi - llo) * static_cast<double>(i) / static_cast<double>(n_bins));
  edges.front() = lo;
  edges.back() = hi;
  return edges;
}

Histogram2D::Histogram2D(std::vector<double> x_edges, std::vector<double> y_edges)
    : x_edges_(std::move(x_edges)), y_edges_(std::move(y_edges)) {
  if (x_edges_.size() < 2 || y_edges_.size() < 2)
    throw std::invalid_argument("Histogram2D: need at least 2 edges per axis");
  cells_.assign((x_edges_.size() - 1) * (y_edges_.size() - 1), 0.0);
}

void Histogram2D::add(double x, double y) {
  if (x < x_edges_.front() || x >= x_edges_.back()) return;
  if (y < y_edges_.front() || y >= y_edges_.back()) return;
  const auto xi = static_cast<std::size_t>(
      std::distance(x_edges_.begin(), std::upper_bound(x_edges_.begin(), x_edges_.end(), x)) - 1);
  const auto yi = static_cast<std::size_t>(
      std::distance(y_edges_.begin(), std::upper_bound(y_edges_.begin(), y_edges_.end(), y)) - 1);
  cells_[yi * x_bins() + xi] += 1.0;
  ++total_;
}

double Histogram2D::count(std::size_t xi, std::size_t yi) const {
  return cells_[yi * x_bins() + xi];
}

std::string Histogram2D::render(const std::string& x_label, const std::string& y_label) const {
  static constexpr char kShades[] = {' ', '.', ':', '+', 'x', 'X', '#', '@'};
  const double peak = *std::max_element(cells_.begin(), cells_.end());
  std::ostringstream os;
  os << y_label << " (rows, increasing downward is reversed: top = max)\n";
  for (std::size_t row = y_bins(); row-- > 0;) {
    os << "  |";
    for (std::size_t col = 0; col < x_bins(); ++col) {
      const double c = count(col, row);
      std::size_t shade = 0;
      if (c > 0.0 && peak > 0.0) {
        const double frac = std::log1p(c) / std::log1p(peak);
        shade = 1 + static_cast<std::size_t>(frac * 6.999);
        shade = std::min<std::size_t>(shade, sizeof(kShades) - 1);
      }
      os << kShades[shade];
    }
    os << "|\n";
  }
  os << "   " << std::string(x_bins(), '-') << "\n";
  os << "   " << x_label << " (log bins left->right)\n";
  return os.str();
}

}  // namespace psched::util
