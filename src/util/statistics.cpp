#include "util/statistics.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace nanoleak {

void RunningStats::add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::mean() const { return count_ > 0 ? mean_ : 0.0; }

double RunningStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  require(count_ > 0, "RunningStats::min: no samples");
  return min_;
}

double RunningStats::max() const {
  require(count_ > 0, "RunningStats::max: no samples");
  return max_;
}

double quantileSorted(std::span<const double> sorted, double q) {
  require(!sorted.empty(), "quantileSorted: empty sample");
  require(q >= 0.0 && q <= 1.0, "quantileSorted: q out of [0,1]");
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  if (lower + 1 >= sorted.size()) {
    return sorted.back();
  }
  return sorted[lower] * (1.0 - fraction) + sorted[lower + 1] * fraction;
}

SampleSummary summarize(std::span<const double> values) {
  SampleSummary summary;
  summary.count = values.size();
  if (values.empty()) {
    return summary;
  }
  RunningStats stats;
  for (double v : values) {
    stats.add(v);
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  summary.mean = stats.mean();
  summary.stddev = stats.stddev();
  summary.min = stats.min();
  summary.max = stats.max();
  summary.median = quantileSorted(sorted, 0.5);
  summary.p95 = quantileSorted(sorted, 0.95);
  summary.p99 = quantileSorted(sorted, 0.99);
  return summary;
}

}  // namespace nanoleak
