/// \file
/// Order-free summation: sums of doubles whose result depends only on the
/// multiset of values added, never on the order or grouping of the adds.
///
/// Binned summation with fixed bin boundaries (Demmel and Nguyen,
/// "Parallel Reproducible Summation", IEEE Transactions on Computers,
/// 2015). Each value v, |v| <= 2, is split onto three fixed grids, of
/// spacing 2^-40, 2^-80 and 2^-120, by magic-number rounding:
///
///     h = (v + 1.5 * 2^(52+e)) - 1.5 * 2^(52+e)
///
/// is v rounded to the nearest multiple of 2^e (ties to even), with no
/// branch; the remainder v - h is exact and goes on to the next grid.
/// Rounding to nearest is odd, so the parts of -v are the negated parts of
/// v: remove(v) adds -v and undoes add(v) exactly. Every |v| >= 2^-68
/// splits exactly; what lies below the finest grid (under 2^-121 per
/// value) is dropped, the same way in every order.
///
/// A grid's parts are integer multiples of its spacing, so they add
/// exactly in a `double` bin while the bin stays within 2^53 spacings:
/// kFoldInterval = 4096 values of |v| <= 2. At least that often the bins
/// fold, by an exact conversion, into 128-bit integer counters. The folded
/// state is the exact sum of each grid's parts, and value() reads it with
/// one fixed, correctly rounded conversion: a function of the multiset
/// alone, however the adds were ordered, grouped or folded.
///
/// One object holds N such sums that share one add count. Their bins are
/// lane-major, so an add() of N values is one loop the compiler
/// vectorizes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace nanoleak::util {

/// N order-free sums updated together (see the file comment).
template <std::size_t N>
class OrderFreeSum {
 public:
  /// Grids every value is split onto, coarsest first.
  static constexpr std::size_t kGrids = 3;
  /// Adds after which the bins fold into the counters: the bins stay exact
  /// for this many values of |v| <= 2.
  static constexpr int kFoldInterval = 4096;

  /// v's parts on the 2^-40, 2^-80 and 2^-120 grids, coarsest first.
  /// Requires |v| <= 2. v minus the three parts is exact, under 2^-121 in
  /// magnitude, and zero when |v| >= 2^-68; split(-v) is -split(v).
  static std::array<double, kGrids> split(double v) {
    const double h0 = (v + kMagic[0]) - kMagic[0];
    const double r0 = v - h0;
    const double h1 = (r0 + kMagic[1]) - kMagic[1];
    const double r1 = r0 - h1;
    const double h2 = (r1 + kMagic[2]) - kMagic[2];
    return {h0, h1, h2};
  }

  /// Adds values[k] to sum k, for every k. Requires every value finite and
  /// of magnitude at most 2.
  void add(const std::array<double, N>& values) { deposit(values, 1.0); }
  /// Removes values[k] from sum k, for every k: undoes add(values) exactly.
  void remove(const std::array<double, N>& values) { deposit(values, -1.0); }

  /// Folds the bins into the counters. add() and remove() fold on their
  /// own every kFoldInterval calls; an earlier fold changes nothing that
  /// value() or == reads.
  void fold() {
    for (std::size_t grid = 0; grid < kGrids; ++grid) {
      for (std::size_t k = 0; k < N; ++k) {
        counter_[grid][k] += binUnits(grid, k);
        bins_[grid][k] = 0.0;
      }
    }
    pending_ = 0;
  }

  /// Sum k, the exact sum of its parts correctly rounded to a double
  /// (+0.0 when it is zero). Exact sums must stay below 2^46 in magnitude.
  double value(std::size_t k) const {
    // Each grid's total in units of its spacing, then carries to the form
    // n0 * 2^-40 + low * 2^-120 with low in [0, 2^80).
    Int128 n0 = counter_[0][k] + binUnits(0, k);
    Int128 n1 = counter_[1][k] + binUnits(1, k);
    Int128 n2 = counter_[2][k] + binUnits(2, k);
    n1 += n2 >> 40;  // arithmetic shifts: floor division by 2^40
    n2 &= kLow40;
    n0 += n1 >> 40;
    n1 &= kLow40;
    const Int128 low = n1 * kTwo40 + n2;
    if (n0 > -kTwo46 && n0 < kTwo46) {
      // The whole sum in units of 2^-120 fits 127 bits: one conversion.
      return static_cast<double>(n0 * kTwo40 * kTwo40 + low) * 0x1p-120;
    }
    // Larger sums in units of 2^-81, rounded to odd (the bits below OR-ed
    // into the last one): over 88 bits, so the conversion's rounding to 53
    // bits is still that of the exact sum.
    const Int128 units = n0 * (Int128{1} << 41) + (low >> 39);
    const bool inexact = (low & ((Int128{1} << 39) - 1)) != 0;
    return static_cast<double>(units | (inexact ? 1 : 0)) * 0x1p-81;
  }

  /// value(k) of every sum.
  std::array<double, N> values() const {
    std::array<double, N> out;
    for (std::size_t k = 0; k < N; ++k) {
      out[k] = value(k);
    }
    return out;
  }

  /// True when every sum of `a` holds the same total on every grid as the
  /// same sum of `b`: so for any two orders of adding one multiset.
  friend bool operator==(const OrderFreeSum& a, const OrderFreeSum& b) {
    for (std::size_t grid = 0; grid < kGrids; ++grid) {
      for (std::size_t k = 0; k < N; ++k) {
        if (a.counter_[grid][k] + a.binUnits(grid, k) !=
            b.counter_[grid][k] + b.binUnits(grid, k)) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  __extension__ typedef __int128 Int128;

  static constexpr double kMagic[kGrids] = {0x1.8p12, 0x1.8p-28, 0x1.8p-68};
  static constexpr double kScale[kGrids] = {0x1p40, 0x1p80, 0x1p120};
  static constexpr Int128 kTwo40 = Int128{1} << 40;
  static constexpr Int128 kTwo46 = Int128{1} << 46;
  static constexpr Int128 kLow40 = kTwo40 - 1;

  void deposit(const std::array<double, N>& values, double sign) {
    for (std::size_t k = 0; k < N; ++k) {
      const std::array<double, kGrids> part = split(sign * values[k]);
      bins_[0][k] += part[0];
      bins_[1][k] += part[1];
      bins_[2][k] += part[2];
    }
    if (++pending_ == kFoldInterval) {
      fold();
    }
  }

  /// Bin (grid, k) in units of its grid's spacing: an integer of at most
  /// 2^53 in magnitude, so the scaling and the conversion are exact.
  std::int64_t binUnits(std::size_t grid, std::size_t k) const {
    return static_cast<std::int64_t>(bins_[grid][k] * kScale[grid]);
  }

  double bins_[kGrids][N] = {};
  Int128 counter_[kGrids][N] = {};
  int pending_ = 0;
};

}  // namespace nanoleak::util
