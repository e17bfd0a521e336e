#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace nanoleak {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  require(hi > lo, "Histogram: hi must exceed lo");
  require(bins >= 1, "Histogram: need at least one bin");
}

Histogram Histogram::fromData(std::span<const double> values,
                              std::size_t bins) {
  require(!values.empty(), "Histogram::fromData: empty sample");
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  double lo = *lo_it;
  double hi = *hi_it;
  if (hi <= lo) {
    // Degenerate sample: widen symmetrically so binning is well defined.
    const double pad = std::max(1e-12, std::abs(lo) * 1e-6);
    lo -= pad;
    hi += pad;
  }
  Histogram histogram(lo, hi, bins);
  histogram.addAll(values);
  return histogram;
}

void Histogram::add(double value) {
  auto bin = static_cast<std::ptrdiff_t>(std::floor((value - lo_) / width_));
  bin = std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::addAll(std::span<const double> values) {
  for (double v : values) {
    add(v);
  }
}

std::size_t Histogram::count(std::size_t bin) const {
  require(bin < counts_.size(), "Histogram::count: bin out of range");
  return counts_[bin];
}

double Histogram::binCenter(std::size_t bin) const {
  require(bin < counts_.size(), "Histogram::binCenter: bin out of range");
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

std::size_t Histogram::modeBin() const {
  const auto it = std::max_element(counts_.begin(), counts_.end());
  return static_cast<std::size_t>(it - counts_.begin());
}

std::string Histogram::toString(bool with_bars) const {
  std::ostringstream out;
  const std::size_t peak = counts_.empty() ? 0 : counts_[modeBin()];
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    out << binCenter(bin) << '\t' << counts_[bin];
    if (with_bars && peak > 0) {
      const std::size_t bars = counts_[bin] * 50 / peak;
      out << '\t' << std::string(bars, '#');
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace nanoleak
