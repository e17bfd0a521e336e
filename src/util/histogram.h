// Fixed-bin histogram used to regenerate the paper's Fig. 10 distributions.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace nanoleak {

/// Equal-width histogram over [lo, hi). Out-of-range samples are clamped
/// into the first/last bin so totals always match the sample count (the
/// paper's histograms likewise show the full population).
class Histogram {
 public:
  /// Requires hi > lo and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  /// Builds a histogram spanning [min, max] of the data.
  static Histogram fromData(std::span<const double> values, std::size_t bins);

  void add(double value);
  void addAll(std::span<const double> values);

  std::size_t binCount() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const;
  /// Center of bin `bin`.
  double binCenter(std::size_t bin) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t totalCount() const { return total_; }

  /// Index of the most populated bin (mode).
  std::size_t modeBin() const;

  /// Renders "center count" rows, one per bin, optionally with a bar chart.
  std::string toString(bool with_bars = false) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace nanoleak
