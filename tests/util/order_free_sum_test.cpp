// Order-free summation: the sum of a multiset of values is bit-identical
// in every add order and fold grouping, removing every value returns the
// zero state, each value's grid parts and dropped remainder reconstruct it
// exactly, the result is a correct rounding of the exact sum up to the
// dropped remainders, and the bins stay exact up to the fold interval.
#include "util/order_free_sum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace nanoleak::util {
namespace {

#if defined(__SIZEOF_FLOAT128__)
__extension__ typedef __float128 Quad;
#else
static_assert(LDBL_MANT_DIG == 113, "the reference sum needs binary128");
typedef long double Quad;
#endif

using Sum = OrderFreeSum<1>;

Quad absQuad(Quad x) { return x < 0 ? -x : x; }

/// 10^4 values: log-uniform magnitudes from 1e-18 to 0.5 of either sign,
/// plus both zeros, subnormals, and values around the exact-split edge.
std::vector<double> mixedValues(Rng& rng) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                1e-310,
                                -3e-320,
                                0x1p-68,
                                -0x1.fffffffffffffp-69,
                                0x1p-121,
                                0x1.8p-121,
                                0.5,
                                -0.5};
  while (values.size() < 10000) {
    const double magnitude =
        std::exp(rng.uniform(std::log(1e-18), std::log(0.5)));
    values.push_back(rng.bernoulli(0.5) ? magnitude : -magnitude);
  }
  return values;
}

void shuffle(std::vector<double>& values, Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.uniformInt(i)]);
  }
}

/// Adds `values` in order, folding after random runs of 1 to 5000 adds.
Sum sumInRandomChunks(const std::vector<double>& values, Rng& rng) {
  Sum sum;
  std::size_t next_fold = 1 + rng.uniformInt(5000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum.add({values[i]});
    if (i + 1 == next_fold) {
      sum.fold();
      next_fold += 1 + rng.uniformInt(5000);
    }
  }
  return sum;
}

TEST(OrderFreeSumTest, EveryOrderAndGroupingGivesTheSameBits) {
  Rng rng(20150101);
  std::vector<double> values = mixedValues(rng);
  Sum reference;
  for (double v : values) {
    reference.add({v});
  }
  const double expected = reference.value(0);
  for (int trial = 0; trial < 50; ++trial) {
    shuffle(values, rng);
    const Sum sum = sumInRandomChunks(values, rng);
    EXPECT_TRUE(sum == reference) << "trial " << trial;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum.value(0)),
              std::bit_cast<std::uint64_t>(expected))
        << "trial " << trial;
  }
}

TEST(OrderFreeSumTest, RemovingEveryValueLeavesPositiveZero) {
  Rng rng(42);
  std::vector<double> values = mixedValues(rng);
  Sum sum;
  for (double v : values) {
    sum.add({v});
  }
  shuffle(values, rng);
  for (double v : values) {
    sum.remove({v});
  }
  EXPECT_TRUE(sum == Sum{});
  EXPECT_EQ(sum.value(0), 0.0);
  EXPECT_FALSE(std::signbit(sum.value(0)));
  EXPECT_FALSE(std::signbit(Sum{}.value(0)));
}

TEST(OrderFreeSumTest, PartsAndRemainderReconstructEachValue) {
  Rng rng(7);
  for (double v : mixedValues(rng)) {
    const auto part = Sum::split(v);
    // Each step of the split is exact in double, so this is the remainder.
    const double rest = ((v - part[0]) - part[1]) - part[2];
    EXPECT_EQ(static_cast<Quad>(part[0]) + static_cast<Quad>(part[1]) +
                  static_cast<Quad>(part[2]) + static_cast<Quad>(rest),
              static_cast<Quad>(v))
        << v;
    EXPECT_LE(std::abs(rest), 0x1p-121) << v;
    if (std::abs(v) >= 0x1p-68) {
      EXPECT_EQ(rest, 0.0) << v;
    }
    // Each part lies on its grid, and removing is adding the negation.
    EXPECT_EQ(part[0], std::ldexp(std::nearbyint(std::ldexp(part[0], 40)),
                                  -40));
    EXPECT_EQ(part[1], std::ldexp(std::nearbyint(std::ldexp(part[1], 80)),
                                  -80));
    EXPECT_EQ(part[2], std::ldexp(std::nearbyint(std::ldexp(part[2], 120)),
                                  -120));
    const auto negated = Sum::split(-v);
    for (std::size_t grid = 0; grid < Sum::kGrids; ++grid) {
      EXPECT_EQ(negated[grid], -part[grid]) << v;
    }
  }
}

/// The value of `values` summed is within one ulp, plus what the split may
/// drop (2^-121 per value), of the exact sum; returns that value.
double expectNearExact(const std::vector<double>& values, Quad& exact) {
  Sum sum;
  exact = 0;
  for (double v : values) {
    sum.add({v});
    exact += static_cast<Quad>(v);
  }
  const double got = sum.value(0);
  const double ulp =
      std::nextafter(std::abs(got), std::numeric_limits<double>::infinity()) -
      std::abs(got);
  const Quad slack = static_cast<Quad>(ulp) +
                     static_cast<Quad>(values.size()) *
                         static_cast<Quad>(0x1p-121);
  EXPECT_LE(absQuad(static_cast<Quad>(got) - exact), slack)
      << "sum " << got << " over " << values.size() << " values";
  return got;
}

TEST(OrderFreeSumTest, ValueIsTheExactSumRounded) {
  Rng rng(99);
  Quad exact = 0;
  expectNearExact(mixedValues(rng), exact);
  // Sums that cancel to almost nothing.
  std::vector<double> cancelling = mixedValues(rng);
  const std::size_t half = cancelling.size();
  for (std::size_t i = 0; i + 1 < half; ++i) {
    cancelling.push_back(-cancelling[i]);
  }
  expectNearExact(cancelling, exact);
  // Sums that drop nothing, of both signs, from beyond the one-conversion
  // range (2^46 units of 2^-40) down to 1e-11: the binary128 sum is exact,
  // and the value is its correct rounding.
  for (double scale : {1.0, -1.0, 0x1p-30, -0x1p-52}) {
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) {
      values.push_back(scale * rng.uniform(1.0, 2.0));
    }
    const double got = expectNearExact(values, exact);
    EXPECT_EQ(got, static_cast<double>(exact)) << scale;
  }
}

TEST(OrderFreeSumTest, FoldingAfterEveryAddChangesNothing) {
  Rng rng(4096);
  const std::vector<double> values = mixedValues(rng);
  Sum every;
  Sum interval;
  for (double v : values) {
    every.add({v});
    every.fold();
    interval.add({v});
  }
  EXPECT_TRUE(every == interval);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(every.value(0)),
            std::bit_cast<std::uint64_t>(interval.value(0)));
}

TEST(OrderFreeSumTest, BinsStayExactForAFullFoldInterval) {
  for (double v : {0.999, -0.999, 2.0, -2.0}) {
    Sum sum;
    for (int i = 0; i + 1 < Sum::kFoldInterval; ++i) {
      sum.add({v});
    }
    // One add short of the fold: the whole sum still sits in the bins.
    EXPECT_EQ(sum.value(0), (Sum::kFoldInterval - 1) * v) << v;
    sum.add({v});
    EXPECT_EQ(sum.value(0), Sum::kFoldInterval * v) << v;
  }
}

TEST(OrderFreeSumTest, LanesAreIndependentSums) {
  OrderFreeSum<3> lanes;
  Sum a;
  Sum b;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    const double y = rng.uniform(0.0, 1e-9);
    lanes.add({x, y, 0.0});
    a.add({x});
    b.add({y});
  }
  const std::array<double, 3> got = lanes.values();
  EXPECT_EQ(got[0], a.value(0));
  EXPECT_EQ(got[1], b.value(0));
  EXPECT_EQ(got[2], 0.0);
}

}  // namespace
}  // namespace nanoleak::util
