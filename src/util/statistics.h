// Streaming statistics (Welford) and simple summary reporting.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace nanoleak {

/// Single-pass mean / variance / extrema accumulator (Welford's algorithm,
/// numerically stable for the 1e-9-scale currents this library produces).
class RunningStats {
 public:
  void add(double value);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary of a sample: mean, stddev, min, max, and selected quantiles.
struct SampleSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Computes a SampleSummary; sorts a copy of the data for quantiles.
SampleSummary summarize(std::span<const double> values);

/// Linear-interpolated quantile of a *sorted* sample, q in [0, 1].
double quantileSorted(std::span<const double> sorted, double q);

}  // namespace nanoleak
