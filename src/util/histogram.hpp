#pragma once
// Fixed- and log-binned histograms. The trace-characterization benches use
// log-binned 2-D histograms as the textual stand-in for the paper's scatter
// plots (Figures 4-7).

#include <cstddef>
#include <string>
#include <vector>

namespace psched::util {

/// 1-D histogram over explicit bin edges: bin i covers [edges[i], edges[i+1]).
/// Values below the first edge or at/above the last edge are counted in
/// underflow/overflow.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void add(double value, double weight = 1.0);

  std::size_t bin_count() const { return counts_.size(); }
  double bin_lo(std::size_t i) const { return edges_[i]; }
  double bin_hi(std::size_t i) const { return edges_[i + 1]; }
  double count(std::size_t i) const { return counts_[i]; }
  double underflow() const { return underflow_; }
  double overflow() const { return overflow_; }
  double total() const;

 private:
  std::vector<double> edges_;
  std::vector<double> counts_;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
};

/// Logarithmically spaced edges: n_bins bins spanning [lo, hi], lo > 0.
std::vector<double> log_edges(double lo, double hi, std::size_t n_bins);

/// 2-D histogram on log-log bins; `render` prints a density grid with one
/// character per cell, darkest for the densest cell (scatter-plot stand-in).
class Histogram2D {
 public:
  Histogram2D(std::vector<double> x_edges, std::vector<double> y_edges);

  void add(double x, double y);

  double count(std::size_t xi, std::size_t yi) const;
  std::size_t x_bins() const { return x_edges_.size() - 1; }
  std::size_t y_bins() const { return y_edges_.size() - 1; }
  double x_lo(std::size_t i) const { return x_edges_[i]; }
  std::size_t total() const { return total_; }

  /// ASCII density plot, y axis increasing upward.
  std::string render(const std::string& x_label, const std::string& y_label) const;

 private:
  std::vector<double> x_edges_;
  std::vector<double> y_edges_;
  std::vector<double> cells_;  // row-major [yi][xi]
  std::size_t total_ = 0;
};

}  // namespace psched::util
