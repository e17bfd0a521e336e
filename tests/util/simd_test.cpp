// Lane abstraction tests: generic and native-width backends must agree
// with scalar libm to a few ulp, masks must blend bitwise (discarding
// inf/NaN in masked-off lanes), and ldexp/frexp must round-trip. The
// transcendental accuracy bounds here back the lane solver's <=1e-6
// scalar-equivalence gate with plenty of margin.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace nanoleak::util {
namespace {

template <std::size_t W>
void fillSequential(Lanes<W>& v, double base, double step) {
  for (std::size_t i = 0; i < W; ++i) {
    v.setLane(i, base + step * static_cast<double>(i));
  }
}

template <std::size_t W>
void checkArithmetic() {
  Lanes<W> a(0.0);
  Lanes<W> b(0.0);
  fillSequential(a, 1.25, 0.5);
  fillSequential(b, -2.0, 1.75);
  const Lanes<W> sum = a + b;
  const Lanes<W> diff = a - b;
  const Lanes<W> prod = a * b;
  const Lanes<W> quot = a / b;
  const Lanes<W> neg = -a;
  for (std::size_t i = 0; i < W; ++i) {
    EXPECT_EQ(sum[i], a[i] + b[i]);
    EXPECT_EQ(diff[i], a[i] - b[i]);
    EXPECT_EQ(prod[i], a[i] * b[i]);
    EXPECT_EQ(quot[i], a[i] / b[i]);
    EXPECT_EQ(neg[i], -a[i]);
    EXPECT_EQ(laneMin(a, b)[i], std::min(a[i], b[i]));
    EXPECT_EQ(laneMax(a, b)[i], std::max(a[i], b[i]));
    EXPECT_EQ(laneAbs(b)[i], std::fabs(b[i]));
    EXPECT_EQ(laneFloor(b)[i], std::floor(b[i]));
  }
  const Lanes<W> pos = laneAbs(b) + Lanes<W>(0.5);
  for (std::size_t i = 0; i < W; ++i) {
    EXPECT_EQ(laneSqrt(pos)[i], std::sqrt(pos[i]));
  }
}

template <std::size_t W>
void checkLoadStoreRoundTrip() {
  std::vector<double> src(W);
  for (std::size_t i = 0; i < W; ++i) {
    src[i] = 0.1 * static_cast<double>(i) - 3.0;
  }
  const Lanes<W> v = Lanes<W>::load(src.data());
  std::vector<double> dst(W, 0.0);
  v.store(dst.data());
  EXPECT_EQ(src, dst);
}

template <std::size_t W>
void checkMasksAndSelect() {
  Lanes<W> a(0.0);
  Lanes<W> b(0.0);
  fillSequential(a, 0.0, 1.0);
  fillSequential(b, static_cast<double>(W) - 1.0, -1.0);
  const LaneMask<W> lt = laneLT(a, b);
  const LaneMask<W> ge = laneGE(a, b);
  for (std::size_t i = 0; i < W; ++i) {
    EXPECT_EQ(lt.lane(i), a[i] < b[i]);
    EXPECT_EQ(ge.lane(i), a[i] >= b[i]);
    EXPECT_EQ(maskNot(lt).lane(i), !lt.lane(i));
    EXPECT_EQ(maskAnd(lt, ge).lane(i), lt.lane(i) && ge.lane(i));
    EXPECT_EQ(maskOr(lt, ge).lane(i), lt.lane(i) || ge.lane(i));
  }
  EXPECT_TRUE(maskAll(maskOr(lt, ge)));
  EXPECT_FALSE(maskAny(maskAnd(lt, ge)));
  EXPECT_FALSE(maskAny(LaneMask<W>::none()));
  EXPECT_TRUE(maskAll(LaneMask<W>::all()));

  const Lanes<W> blended = laneSelect(lt, a, b);
  for (std::size_t i = 0; i < W; ++i) {
    EXPECT_EQ(blended[i], lt.lane(i) ? a[i] : b[i]);
  }

  // Masked-off lanes holding inf/NaN must not contaminate the blend.
  Lanes<W> poison(std::numeric_limits<double>::quiet_NaN());
  poison.setLane(0, std::numeric_limits<double>::infinity());
  const Lanes<W> safe = laneSelect(LaneMask<W>::none(), poison, a);
  for (std::size_t i = 0; i < W; ++i) {
    EXPECT_EQ(safe[i], a[i]);
  }
}

template <std::size_t W>
void checkLdexpFrexpRoundTrip(Rng& rng) {
  for (int rep = 0; rep < 200; ++rep) {
    Lanes<W> x(0.0);
    for (std::size_t i = 0; i < W; ++i) {
      const double mant = rng.uniform(0.1, 10.0);
      const int scale = static_cast<int>(rng.uniformInt(601)) - 300;
      x.setLane(i, std::ldexp(mant, scale));
    }
    Lanes<W> m;
    Lanes<W> e;
    laneFrexp(x, m, e);
    const Lanes<W> back = laneLdexp(m, e);
    for (std::size_t i = 0; i < W; ++i) {
      // Cephes normalization keeps the mantissa in [sqrt(1/2), sqrt(2)).
      EXPECT_GE(m[i], 0.70710678118654752440);
      EXPECT_LT(m[i], 1.4142135623730951);
      EXPECT_EQ(back[i], x[i]) << "lane " << i;
    }
  }
}

template <std::size_t W>
void checkTranscendentals(Rng& rng) {
  for (int rep = 0; rep < 500; ++rep) {
    Lanes<W> x(0.0);
    for (std::size_t i = 0; i < W; ++i) {
      x.setLane(i, rng.uniform(-690.0, 690.0));
    }
    const Lanes<W> e = laneExp(x);
    for (std::size_t i = 0; i < W; ++i) {
      const double want = std::exp(x[i]);
      EXPECT_NEAR(e[i], want, 1e-12 * want) << "exp(" << x[i] << ")";
    }
  }
  for (int rep = 0; rep < 500; ++rep) {
    Lanes<W> x(0.0);
    for (std::size_t i = 0; i < W; ++i) {
      x.setLane(i, std::ldexp(rng.uniform(0.5, 2.0),
                              static_cast<int>(rng.uniformInt(401)) - 200));
    }
    const Lanes<W> l = laneLog(x);
    for (std::size_t i = 0; i < W; ++i) {
      const double want = std::log(x[i]);
      const double tol = 1e-12 * std::max(1.0, std::fabs(want));
      EXPECT_NEAR(l[i], want, tol) << "log(" << x[i] << ")";
    }
  }
  for (int rep = 0; rep < 500; ++rep) {
    Lanes<W> x(0.0);
    for (std::size_t i = 0; i < W; ++i) {
      // Log-uniform over [1e-18, 1e2]: covers the tiny-x regime where
      // naive log(1+x) loses all precision.
      x.setLane(i, std::pow(10.0, rng.uniform(-18.0, 2.0)));
    }
    const Lanes<W> l = laneLog1p(x);
    for (std::size_t i = 0; i < W; ++i) {
      const double want = std::log1p(x[i]);
      EXPECT_NEAR(l[i], want, 1e-12 * std::max(want, 1e-300))
          << "log1p(" << x[i] << ")";
    }
  }
}

TEST(SimdTest, BackendNameMatchesNativeWidth) {
  const std::string name = backendName();
  if (name == "avx2") {
    EXPECT_EQ(kNativeLaneWidth, 4u);
  } else if (name == "neon") {
    EXPECT_EQ(kNativeLaneWidth, 2u);
  } else {
    EXPECT_EQ(name, "scalar");
    EXPECT_EQ(kNativeLaneWidth, 1u);
  }
}

TEST(SimdTest, ArithmeticMatchesScalar) {
  checkArithmetic<1>();
  checkArithmetic<2>();
  checkArithmetic<4>();
  checkArithmetic<kNativeLaneWidth>();
}

TEST(SimdTest, LoadStoreRoundTrips) {
  checkLoadStoreRoundTrip<1>();
  checkLoadStoreRoundTrip<2>();
  checkLoadStoreRoundTrip<4>();
}

TEST(SimdTest, MasksAndSelectBlendBitwise) {
  checkMasksAndSelect<1>();
  checkMasksAndSelect<2>();
  checkMasksAndSelect<4>();
}

TEST(SimdTest, LdexpFrexpRoundTrip) {
  Rng rng(2005);
  checkLdexpFrexpRoundTrip<1>(rng);
  checkLdexpFrexpRoundTrip<2>(rng);
  checkLdexpFrexpRoundTrip<4>(rng);
}

TEST(SimdTest, TranscendentalsMatchLibm) {
  Rng rng(1405);
  checkTranscendentals<1>(rng);
  checkTranscendentals<2>(rng);
  checkTranscendentals<4>(rng);
}

}  // namespace
}  // namespace nanoleak::util
