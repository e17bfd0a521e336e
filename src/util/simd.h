/// \file
/// Width-agnostic SIMD lane abstraction for the lane solver
/// (circuit::SolverKernel::solveLanes).
///
/// `Lanes<W>` is a value type holding W doubles that are operated on in
/// lockstep; `LaneMask<W>` is its per-lane boolean companion with bitwise
/// blend semantics. The generic implementation is a plain loop over a
/// double array (correct for any W, and what the compiler auto-vectorizes
/// on targets without a hand-written backend); when the build selects the
/// AVX2 backend (`-DNANOLEAK_SIMD=avx2`, or `auto` on x86-64) `Lanes<4>`
/// is specialized onto `__m256d` intrinsics.
///
/// Backend selection is a configure-time decision surfaced here as
/// `kNativeLaneWidth` (scalar: 1, NEON: 2, AVX2: 4) and `backendName()`.
/// The scalar backend (width 1) is the bit-exact reference: a batch of
/// width-1 lanes runs the exact scalar solver code path, so vectorized
/// backends can be gated against it (see bench_solver_kernel).
///
/// One code, two value types: the compiled device model and the
/// Gauss-Seidel driver are templates over `T` in {double, Lanes<W>}, and
/// every primitive they call is overloaded here for both. The `double`
/// overloads (end of file) are the libm calls and comparisons the scalar
/// code always made, in its argument order, with `bool` masks, so a
/// `double` instantiation is the scalar code bit for bit.
///
/// Numeric contract: `laneExp` / `laneLog` / `laneLog1p` are FMA-free
/// Cephes-style polynomial evaluations with the *same* operation sequence
/// in the generic and AVX2 backends, accurate to a few ulp — far inside
/// the lane solver's ≤1e-6 equivalence gate. `laneSelect` is a bitwise
/// blend: values in discarded lanes (including inf/NaN from masked-off
/// divisions) never contaminate the result.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(NANOLEAK_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace nanoleak::util {

/// Number of lanes the configured backend operates on natively.
#if defined(NANOLEAK_SIMD_AVX2)
inline constexpr std::size_t kNativeLaneWidth = 4;  ///< AVX2: 4 x double.
#elif defined(NANOLEAK_SIMD_NEON)
inline constexpr std::size_t kNativeLaneWidth = 2;  ///< NEON: 2 x double.
#else
inline constexpr std::size_t kNativeLaneWidth = 1;  ///< Scalar reference.
#endif

/// Human-readable name of the configured backend (for bench/stats output).
inline const char* backendName() {
#if defined(NANOLEAK_SIMD_AVX2)
  return "avx2";
#elif defined(NANOLEAK_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// Per-lane boolean mask. Each lane is all-ones (true) or all-zeros
/// (false) so select() can blend bitwise.
template <std::size_t W>
struct LaneMask {
  std::uint64_t bits[W];  ///< All-ones (true) / all-zeros (false) per lane.

  /// Mask with every lane false.
  static LaneMask none() {
    LaneMask m;
    for (std::size_t i = 0; i < W; ++i) m.bits[i] = 0;
    return m;
  }
  /// Mask with every lane true.
  static LaneMask all() {
    LaneMask m;
    for (std::size_t i = 0; i < W; ++i) m.bits[i] = ~std::uint64_t{0};
    return m;
  }
  /// Reads lane `i`.
  bool lane(std::size_t i) const { return bits[i] != 0; }
  /// Sets lane `i`.
  void setLane(std::size_t i, bool on) {
    bits[i] = on ? ~std::uint64_t{0} : 0;
  }
};

/// W doubles operated on in lockstep.
template <std::size_t W>
struct Lanes {
  static_assert(W >= 1, "Lanes width must be positive");
  double lane[W];  ///< Lane values, index 0 first.

  Lanes() = default;
  /// Broadcasts `x` to every lane.
  explicit Lanes(double x) {
    for (std::size_t i = 0; i < W; ++i) lane[i] = x;
  }
  /// Loads W consecutive doubles.
  static Lanes load(const double* p) {
    Lanes v;
    for (std::size_t i = 0; i < W; ++i) v.lane[i] = p[i];
    return v;
  }
  /// Stores W consecutive doubles.
  void store(double* p) const {
    for (std::size_t i = 0; i < W; ++i) p[i] = lane[i];
  }
  /// Reads lane `i`.
  double operator[](std::size_t i) const { return lane[i]; }
  /// Sets lane `i`.
  void setLane(std::size_t i, double x) { lane[i] = x; }
};

// --- Generic lanewise arithmetic -------------------------------------------

/// Lanewise addition.
template <std::size_t W>
inline Lanes<W> operator+(Lanes<W> a, Lanes<W> b) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
  return r;
}
/// Lanewise subtraction.
template <std::size_t W>
inline Lanes<W> operator-(Lanes<W> a, Lanes<W> b) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
  return r;
}
/// Lanewise multiplication.
template <std::size_t W>
inline Lanes<W> operator*(Lanes<W> a, Lanes<W> b) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
  return r;
}
/// Lanewise division.
template <std::size_t W>
inline Lanes<W> operator/(Lanes<W> a, Lanes<W> b) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = a.lane[i] / b.lane[i];
  return r;
}
/// Lanewise negation.
template <std::size_t W>
inline Lanes<W> operator-(Lanes<W> a) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = -a.lane[i];
  return r;
}

/// Lanewise minimum.
template <std::size_t W>
inline Lanes<W> laneMin(Lanes<W> a, Lanes<W> b) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i)
    r.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
  return r;
}
/// Lanewise maximum.
template <std::size_t W>
inline Lanes<W> laneMax(Lanes<W> a, Lanes<W> b) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i)
    r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
  return r;
}
/// Lanewise absolute value.
template <std::size_t W>
inline Lanes<W> laneAbs(Lanes<W> a) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = std::fabs(a.lane[i]);
  return r;
}
/// Lanewise square root.
template <std::size_t W>
inline Lanes<W> laneSqrt(Lanes<W> a) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = std::sqrt(a.lane[i]);
  return r;
}
/// Lanewise floor.
template <std::size_t W>
inline Lanes<W> laneFloor(Lanes<W> a) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) r.lane[i] = std::floor(a.lane[i]);
  return r;
}

// --- Generic comparisons / mask ops ----------------------------------------

/// Lanewise `a < b`.
template <std::size_t W>
inline LaneMask<W> laneLT(Lanes<W> a, Lanes<W> b) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.setLane(i, a.lane[i] < b.lane[i]);
  return m;
}
/// Lanewise `a <= b`.
template <std::size_t W>
inline LaneMask<W> laneLE(Lanes<W> a, Lanes<W> b) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.setLane(i, a.lane[i] <= b.lane[i]);
  return m;
}
/// Lanewise `a > b`.
template <std::size_t W>
inline LaneMask<W> laneGT(Lanes<W> a, Lanes<W> b) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.setLane(i, a.lane[i] > b.lane[i]);
  return m;
}
/// Lanewise `a >= b`.
template <std::size_t W>
inline LaneMask<W> laneGE(Lanes<W> a, Lanes<W> b) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.setLane(i, a.lane[i] >= b.lane[i]);
  return m;
}
/// Lanewise `a == b`.
template <std::size_t W>
inline LaneMask<W> laneEQ(Lanes<W> a, Lanes<W> b) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.setLane(i, a.lane[i] == b.lane[i]);
  return m;
}

/// Lanewise mask conjunction.
template <std::size_t W>
inline LaneMask<W> maskAnd(LaneMask<W> a, LaneMask<W> b) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.bits[i] = a.bits[i] & b.bits[i];
  return m;
}
/// Lanewise mask disjunction.
template <std::size_t W>
inline LaneMask<W> maskOr(LaneMask<W> a, LaneMask<W> b) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.bits[i] = a.bits[i] | b.bits[i];
  return m;
}
/// Lanewise mask negation.
template <std::size_t W>
inline LaneMask<W> maskNot(LaneMask<W> a) {
  LaneMask<W> m;
  for (std::size_t i = 0; i < W; ++i) m.bits[i] = ~a.bits[i];
  return m;
}
/// True when any lane of the mask is true.
template <std::size_t W>
inline bool maskAny(LaneMask<W> a) {
  for (std::size_t i = 0; i < W; ++i)
    if (a.bits[i] != 0) return true;
  return false;
}
/// True when every lane of the mask is true.
template <std::size_t W>
inline bool maskAll(LaneMask<W> a) {
  for (std::size_t i = 0; i < W; ++i)
    if (a.bits[i] == 0) return false;
  return true;
}

/// Bitwise blend: lane i of the result is a's lane where the mask lane is
/// true, b's lane otherwise. Discarded lanes never contaminate the result
/// (inf/NaN in a masked-off lane is simply not selected).
template <std::size_t W>
inline Lanes<W> laneSelect(LaneMask<W> m, Lanes<W> a, Lanes<W> b) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) {
    std::uint64_t ab;
    std::uint64_t bb;
    std::memcpy(&ab, &a.lane[i], sizeof ab);
    std::memcpy(&bb, &b.lane[i], sizeof bb);
    const std::uint64_t rb = (ab & m.bits[i]) | (bb & ~m.bits[i]);
    std::memcpy(&r.lane[i], &rb, sizeof rb);
  }
  return r;
}

// --- AVX2 backend -----------------------------------------------------------

#if defined(NANOLEAK_SIMD_AVX2)

/// AVX2 mask: four all-ones/all-zeros double lanes in a __m256d.
template <>
struct LaneMask<4> {
  __m256d m;  ///< All-ones (true) / all-zeros (false) per double lane.

  /// Mask with every lane false.
  static LaneMask none() { return {_mm256_setzero_pd()}; }
  /// Mask with every lane true.
  static LaneMask all() {
    return {_mm256_castsi256_pd(_mm256_set1_epi64x(-1))};
  }
  /// Reads lane `i`.
  bool lane(std::size_t i) const {
    return (_mm256_movemask_pd(m) >> i) & 1;
  }
  /// Sets lane `i`.
  void setLane(std::size_t i, bool on) {
    alignas(32) std::uint64_t raw[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(raw),
                       _mm256_castpd_si256(m));
    raw[i] = on ? ~std::uint64_t{0} : 0;
    m = _mm256_castsi256_pd(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(raw)));
  }
};

/// AVX2 lanes: four doubles in a __m256d.
template <>
struct Lanes<4> {
  __m256d v;  ///< The four lane values.

  Lanes() = default;
  /// Wraps a raw vector register.
  Lanes(__m256d raw) : v(raw) {}
  /// Broadcasts `x` to every lane.
  explicit Lanes(double x) : v(_mm256_set1_pd(x)) {}
  /// Loads 4 consecutive doubles (unaligned).
  static Lanes load(const double* p) { return {_mm256_loadu_pd(p)}; }
  /// Stores 4 consecutive doubles (unaligned).
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  /// Reads lane `i`.
  double operator[](std::size_t i) const {
    alignas(32) double raw[4];
    _mm256_store_pd(raw, v);
    return raw[i];
  }
  /// Sets lane `i`.
  void setLane(std::size_t i, double x) {
    alignas(32) double raw[4];
    _mm256_store_pd(raw, v);
    raw[i] = x;
    v = _mm256_load_pd(raw);
  }
};

/// Lanewise addition (AVX2).
inline Lanes<4> operator+(Lanes<4> a, Lanes<4> b) {
  return {_mm256_add_pd(a.v, b.v)};
}
/// Lanewise subtraction (AVX2).
inline Lanes<4> operator-(Lanes<4> a, Lanes<4> b) {
  return {_mm256_sub_pd(a.v, b.v)};
}
/// Lanewise multiplication (AVX2).
inline Lanes<4> operator*(Lanes<4> a, Lanes<4> b) {
  return {_mm256_mul_pd(a.v, b.v)};
}
/// Lanewise division (AVX2).
inline Lanes<4> operator/(Lanes<4> a, Lanes<4> b) {
  return {_mm256_div_pd(a.v, b.v)};
}
/// Lanewise negation (AVX2).
inline Lanes<4> operator-(Lanes<4> a) {
  return {_mm256_sub_pd(_mm256_setzero_pd(), a.v)};
}
/// Lanewise minimum (AVX2).
inline Lanes<4> laneMin(Lanes<4> a, Lanes<4> b) {
  return {_mm256_min_pd(b.v, a.v)};
}
/// Lanewise maximum (AVX2).
inline Lanes<4> laneMax(Lanes<4> a, Lanes<4> b) {
  return {_mm256_max_pd(b.v, a.v)};
}
/// Lanewise absolute value (AVX2).
inline Lanes<4> laneAbs(Lanes<4> a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
/// Lanewise square root (AVX2).
inline Lanes<4> laneSqrt(Lanes<4> a) { return {_mm256_sqrt_pd(a.v)}; }
/// Lanewise floor (AVX2).
inline Lanes<4> laneFloor(Lanes<4> a) { return {_mm256_floor_pd(a.v)}; }

/// Lanewise `a < b` (AVX2).
inline LaneMask<4> laneLT(Lanes<4> a, Lanes<4> b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
/// Lanewise `a <= b` (AVX2).
inline LaneMask<4> laneLE(Lanes<4> a, Lanes<4> b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
}
/// Lanewise `a > b` (AVX2).
inline LaneMask<4> laneGT(Lanes<4> a, Lanes<4> b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}
/// Lanewise `a >= b` (AVX2).
inline LaneMask<4> laneGE(Lanes<4> a, Lanes<4> b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
/// Lanewise `a == b` (AVX2).
inline LaneMask<4> laneEQ(Lanes<4> a, Lanes<4> b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}

/// Lanewise mask conjunction (AVX2).
inline LaneMask<4> maskAnd(LaneMask<4> a, LaneMask<4> b) {
  return {_mm256_and_pd(a.m, b.m)};
}
/// Lanewise mask disjunction (AVX2).
inline LaneMask<4> maskOr(LaneMask<4> a, LaneMask<4> b) {
  return {_mm256_or_pd(a.m, b.m)};
}
/// Lanewise mask negation (AVX2).
inline LaneMask<4> maskNot(LaneMask<4> a) {
  return {_mm256_xor_pd(a.m, LaneMask<4>::all().m)};
}
/// True when any lane of the mask is true (AVX2).
inline bool maskAny(LaneMask<4> a) { return _mm256_movemask_pd(a.m) != 0; }
/// True when every lane of the mask is true (AVX2).
inline bool maskAll(LaneMask<4> a) { return _mm256_movemask_pd(a.m) == 0xf; }

/// Bitwise blend: a where mask true, b otherwise (AVX2).
inline Lanes<4> laneSelect(LaneMask<4> m, Lanes<4> a, Lanes<4> b) {
  return {_mm256_blendv_pd(b.v, a.v, m.m)};
}

/// Scales each lane by 2^n for integral-valued `n` lanes in [-1021, 1021]
/// (exponent bit manipulation; the exp() argument clamp keeps n in range).
inline Lanes<4> laneLdexp(Lanes<4> x, Lanes<4> n) {
  const __m128i n32 = _mm256_cvtpd_epi32(n.v);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i biased = _mm256_add_epi64(n64, _mm256_set1_epi64x(1023));
  const __m256d scale =
      _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52));
  return {_mm256_mul_pd(x.v, scale)};
}

/// Splits each lane into mantissa in [sqrt(1/2), sqrt(2)) and integral
/// exponent so that lane = mantissa * 2^exponent (frexp with the Cephes
/// normalization used by laneLog).
inline void laneFrexp(Lanes<4> x, Lanes<4>& mantissa, Lanes<4>& exponent) {
  const __m256i bits = _mm256_castpd_si256(x.v);
  const __m256i exp_field = _mm256_srli_epi64(bits, 52);
  const __m256i exp_masked =
      _mm256_and_si256(exp_field, _mm256_set1_epi64x(0x7ff));
  const __m256i unbiased =
      _mm256_sub_epi64(exp_masked, _mm256_set1_epi64x(1022));
  // int64 -> double via the signed magic-number trick: adding the bit
  // pattern of 2^52 + 2^51 folds a small signed integer into the mantissa
  // (valid for |v| < 2^51, far beyond the 11-bit exponent range here).
  const __m256i magic = _mm256_set1_epi64x(0x4338000000000000LL);
  const __m256d as_double = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(unbiased, magic)),
      _mm256_castsi256_pd(magic));
  const __m256i mant_bits = _mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(0x3fe0000000000000LL));  // exponent of 0.5
  Lanes<4> m{_mm256_castsi256_pd(mant_bits)};
  Lanes<4> e{as_double};
  // Cephes normalization: fold mantissas below sqrt(1/2) up a binade.
  const LaneMask<4> low = laneLT(m, Lanes<4>(0.70710678118654752440));
  mantissa = laneSelect(low, m + m, m);
  exponent = laneSelect(low, e - Lanes<4>(1.0), e);
}

#endif  // NANOLEAK_SIMD_AVX2

// --- Generic ldexp/frexp (any width without a specialized backend) ----------

/// Lanewise `x * 2^n` (n integral, carried as doubles).
template <std::size_t W>
inline Lanes<W> laneLdexp(Lanes<W> x, Lanes<W> n) {
  Lanes<W> r;
  for (std::size_t i = 0; i < W; ++i) {
    const std::int64_t biased = static_cast<std::int64_t>(n.lane[i]) + 1023;
    const std::uint64_t bits = static_cast<std::uint64_t>(biased) << 52;
    double scale;
    std::memcpy(&scale, &bits, sizeof scale);
    r.lane[i] = x.lane[i] * scale;
  }
  return r;
}

/// Lanewise frexp: splits `x` into mantissa in [0.5, 1) and exponent.
template <std::size_t W>
inline void laneFrexp(Lanes<W> x, Lanes<W>& mantissa, Lanes<W>& exponent) {
  for (std::size_t i = 0; i < W; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &x.lane[i], sizeof bits);
    const std::int64_t unbiased =
        static_cast<std::int64_t>((bits >> 52) & 0x7ff) - 1022;
    const std::uint64_t mant_bits =
        (bits & 0x000fffffffffffffULL) | 0x3fe0000000000000ULL;
    double m;
    std::memcpy(&m, &mant_bits, sizeof m);
    double e = static_cast<double>(unbiased);
    if (m < 0.70710678118654752440) {
      m += m;
      e -= 1.0;
    }
    mantissa.lane[i] = m;
    exponent.lane[i] = e;
  }
}

// --- Transcendentals (identical operation sequence on every backend) --------

/// Lanewise e^x, Cephes-style: range-reduce by powers of two, evaluate a
/// Pade rational in the reduced argument, rescale. Inputs are clamped to
/// [-700, 700] (callers in the device model clamp far tighter); accuracy
/// is a few ulp, well inside the lane solver's equivalence gate.
template <std::size_t W>
inline Lanes<W> laneExp(Lanes<W> x) {
  x = laneMax(laneMin(x, Lanes<W>(700.0)), Lanes<W>(-700.0));
  // n = floor(x * log2(e) + 0.5); reduce with ln2 split into hi+lo parts.
  const Lanes<W> n =
      laneFloor(x * Lanes<W>(1.4426950408889634073599) + Lanes<W>(0.5));
  x = x - n * Lanes<W>(6.93145751953125e-1);
  x = x - n * Lanes<W>(1.42860682030941723212e-6);
  const Lanes<W> xx = x * x;
  // px = x * P(xx), qx = Q(xx)  (Cephes expd coefficients).
  Lanes<W> px = Lanes<W>(1.26177193074810590878e-4);
  px = px * xx + Lanes<W>(3.02994407707441961300e-2);
  px = px * xx + Lanes<W>(9.99999999999999999910e-1);
  px = px * x;
  Lanes<W> qx = Lanes<W>(3.00198505138664455042e-6);
  qx = qx * xx + Lanes<W>(2.52448340349684104192e-3);
  qx = qx * xx + Lanes<W>(2.27265548208155028766e-1);
  qx = qx * xx + Lanes<W>(2.00000000000000000005e0);
  const Lanes<W> e = px / (qx - px);
  return laneLdexp(Lanes<W>(1.0) + e + e, n);
}

/// Lanewise natural log, Cephes-style: frexp split, rational polynomial in
/// the mantissa, exponent re-assembled with a split ln2. Domain: strictly
/// positive finite inputs (the device model only takes logs of 1 + e^x).
template <std::size_t W>
inline Lanes<W> laneLog(Lanes<W> x) {
  Lanes<W> m;
  Lanes<W> e;
  laneFrexp(x, m, e);
  const Lanes<W> z = m - Lanes<W>(1.0);
  const Lanes<W> zz = z * z;
  // y = z^3 * P(z)/Q(z)  (Cephes logd coefficients).
  Lanes<W> p = Lanes<W>(1.01875663804580931796e-4);
  p = p * z + Lanes<W>(4.97494994976747001425e-1);
  p = p * z + Lanes<W>(4.70579119878881725854e0);
  p = p * z + Lanes<W>(1.44989225341610930846e1);
  p = p * z + Lanes<W>(1.79368678507819816313e1);
  p = p * z + Lanes<W>(7.70838733755885391666e0);
  Lanes<W> q = z + Lanes<W>(1.12873587189167450590e1);
  q = q * z + Lanes<W>(4.52279145837532221105e1);
  q = q * z + Lanes<W>(8.29875266912776603211e1);
  q = q * z + Lanes<W>(7.11544750618563894466e1);
  q = q * z + Lanes<W>(2.31251620126765340583e1);
  Lanes<W> y = z * zz * (p / q);
  y = y - e * Lanes<W>(2.121944400546905827679e-4);
  y = y - Lanes<W>(0.5) * zz;
  return z + y + e * Lanes<W>(0.693359375);
}

/// Lanewise log(1 + x) for x >= 0, accurate for small x via the classic
/// w = 1 + x correction: log1p(x) = log(w) * x / (w - 1), with the w == 1
/// lanes blended to x itself (where log1p(x) == x to double precision).
template <std::size_t W>
inline Lanes<W> laneLog1p(Lanes<W> x) {
  const Lanes<W> one(1.0);
  const Lanes<W> w = one + x;
  const LaneMask<W> exact = laneEQ(w, one);
  // Masked-off lanes may divide by zero; the blend discards them.
  const Lanes<W> corrected = laneLog(w) * (x / (w - one));
  return laneSelect(exact, x, corrected);
}

/// Lanewise ln(1 + e^x): the three branches of the scalar overload below
/// as blends over one shared laneExp evaluation.
template <std::size_t W>
inline Lanes<W> laneSoftLog1pExp(Lanes<W> x) {
  const Lanes<W> e = laneExp(x);
  const Lanes<W> mid = laneLog1p(e);
  return laneSelect(laneGT(x, Lanes<W>(40.0)), x,
                    laneSelect(laneLT(x, Lanes<W>(-40.0)), e, mid));
}

/// Lanewise clamp into [lo, hi] (max against lo, then min against hi).
template <std::size_t W>
inline Lanes<W> laneClamp(Lanes<W> x, Lanes<W> lo, Lanes<W> hi) {
  return laneMin(laneMax(x, lo), hi);
}

/// Lanewise finiteness: |x| <= DBL_MAX (false for inf and NaN).
template <std::size_t W>
inline LaneMask<W> laneIsFinite(Lanes<W> x) {
  return laneLE(laneAbs(x), Lanes<W>(std::numeric_limits<double>::max()));
}

/// Reads lane `i` (free-function form shared with the double overload).
template <std::size_t W>
inline double laneAt(Lanes<W> x, std::size_t i) { return x[i]; }
/// Sets lane `i` (free-function form shared with the double overload).
template <std::size_t W>
inline void setLaneAt(Lanes<W>& x, std::size_t i, double v) { x.setLane(i, v); }
/// Reads mask lane `i` (free-function form shared with the bool overload).
template <std::size_t W>
inline bool maskAt(LaneMask<W> m, std::size_t i) { return m.lane(i); }
/// Sets mask lane `i` (free-function form shared with the bool overload).
template <std::size_t W>
inline void setMaskAt(LaneMask<W>& m, std::size_t i, bool b) {
  m.setLane(i, b);
}

// --- Value-type traits -------------------------------------------------------

/// Width and mask type of a value type: `double` is one lane masked by
/// `bool`, `Lanes<W>` W lanes masked by `LaneMask<W>`. A value-initialized
/// mask (`Mask{}`) is false in every lane.
template <typename T>
struct LaneTraits;

/// One lane, `bool` mask.
template <>
struct LaneTraits<double> {
  static constexpr std::size_t kWidth = 1;  ///< Lanes per value.
  using Mask = bool;                        ///< Per-lane predicate type.
};

/// W lanes, `LaneMask<W>` mask.
template <std::size_t W>
struct LaneTraits<Lanes<W>> {
  static constexpr std::size_t kWidth = W;  ///< Lanes per value.
  using Mask = LaneMask<W>;                 ///< Per-lane predicate type.
};

/// The mask type of value type T.
template <typename T>
using MaskOf = typename LaneTraits<T>::Mask;

// --- Scalar (double) overloads: the scalar code's own calls (file comment) --

/// e^x (std::exp).
inline double laneExp(double x) { return std::exp(x); }

/// ln(1 + e^x) evaluated without overflow: x itself above 40, e^x below
/// -40, log1p(e^x) between. The interpreted device model (models.cpp)
/// calls it too, so it and the compiled model run this exact code.
inline double laneSoftLog1pExp(double x) {
  if (x > 40.0) {
    return x;
  }
  if (x < -40.0) {
    return std::exp(x);
  }
  return std::log1p(std::exp(x));
}

/// Square root (std::sqrt).
inline double laneSqrt(double x) { return std::sqrt(x); }
/// Absolute value (std::abs).
inline double laneAbs(double x) { return std::abs(x); }
/// std::min(a, b): `b < a ? b : a`.
inline double laneMin(double a, double b) { return std::min(a, b); }
/// std::max(a, b): `a < b ? b : a`.
inline double laneMax(double a, double b) { return std::max(a, b); }
/// std::clamp(x, lo, hi).
inline double laneClamp(double x, double lo, double hi) {
  return std::clamp(x, lo, hi);
}
/// std::isfinite(x).
inline bool laneIsFinite(double x) { return std::isfinite(x); }

/// `a < b`.
inline bool laneLT(double a, double b) { return a < b; }
/// `a > b`.
inline bool laneGT(double a, double b) { return a > b; }
/// `a >= b`.
inline bool laneGE(double a, double b) { return a >= b; }

/// `m ? a : b`.
inline double laneSelect(bool m, double a, double b) { return m ? a : b; }
/// `a && b`.
inline bool maskAnd(bool a, bool b) { return a && b; }
/// `a || b`.
inline bool maskOr(bool a, bool b) { return a || b; }
/// `!a`.
inline bool maskNot(bool a) { return !a; }
/// The mask itself (its only lane).
inline bool maskAny(bool a) { return a; }
/// The mask itself (its only lane).
inline bool maskAll(bool a) { return a; }

/// The value itself (its only lane).
inline double laneAt(double x, std::size_t) { return x; }
/// Assigns the value (its only lane).
inline void setLaneAt(double& x, std::size_t, double value) { x = value; }
/// The mask itself (its only lane).
inline bool maskAt(bool m, std::size_t) { return m; }
/// Assigns the mask (its only lane).
inline void setMaskAt(bool& m, std::size_t, bool on) { m = on; }

}  // namespace nanoleak::util
