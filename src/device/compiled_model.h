// Compiled (bias-invariant vs. bias-dependent) split of the device models.
//
// A DeviceCoeffs holds every per-device quantity that depends only on
// (DeviceParams, width, DeviceVariation, Environment) - temperature-scaled
// specific current, effective geometry, tunneling tox/temperature factors,
// BTBT field and band-gap factors, threshold-voltage prefix - so the
// bias-dependent evaluation that the DC solver calls thousands of times
// per solve performs no pow/log and roughly half the exp calls of the
// interpreted Mosfet path.
//
// The bias-dependent components (detail::compiledVth ...
// detail::nmosTerminalCurrent) and compiledTerminalCurrent are written
// once, as templates over the value type T in lane form (min/max frame
// sort plus a sign select, the BTBT cut-off a select), calling only
// primitives util/simd.h overloads for both types. T = double is the
// scalar model; T = util::Lanes<W> evaluates one device at W operating
// points at once (SolverKernel::solveLanes), coefficients broadcast.
//
// Bit-identity contract: compiledCurrents / compiledLeakage / compiledIsOff
// (scalar compositions of the same components) return the EXACT same
// doubles as Mosfet::currents / leakage / isOff at every bias, and
// compiledTerminalCurrent<double> the corresponding member of
// compiledCurrents. Two rules make that hold (pinned by
// tests/device/compiled_model_test.cpp):
//  * a cached coefficient is always the value of a whole subexpression of
//    the original model, computed by the same expression (same libm calls,
//    same inputs -> same bits);
//  * bias-dependent arithmetic keeps the original association order -
//    cached values only ever substitute for the subtree they came from,
//    never re-associate neighbouring factors.
// The double primitives are the original libm calls, so the rules hold
// for the templates at T = double. At T = Lanes<W> the same operation
// sequence runs on util::laneExp/laneLog1p instead of libm: lanes agree
// with the double instantiation to a few ulp, not bitwise (same test; see
// compiledTerminalCurrent).
#pragma once

#include "device/device_params.h"
#include "device/leakage_breakdown.h"
#include "device/models.h"
#include "device/mosfet.h"
#include "util/constants.h"
#include "util/simd.h"

namespace nanoleak::device {

/// Bias-independent per-device coefficients (see file comment).
struct DeviceCoeffs {
  bool pmos = false;  ///< evaluate mirrored, negate currents (see Mosfet)
  double width = 0.0;

  // --- channel ------------------------------------------------------------
  double vt = 0.0;            ///< thermalVoltage(T)
  double i_spec_t = 0.0;      ///< i_spec * (T/300)^(2 - mu_tc)
  double channel_pref = 0.0;  ///< i_spec_t * (width / l_eff)
  double n_vt = 0.0;          ///< n * vt
  double two_n_vt = 0.0;      ///< (2 * n) * vt
  double zeta_two_n_vt = 0.0; ///< zeta_sat * two_n_vt
  double theta_vsat = 0.0;
  double lambda = 0.0;

  // --- threshold voltage ----------------------------------------------------
  double vth_prefix = 0.0;  ///< (vth0 + halo_shift) + roll_off
  double neg_dibl = 0.0;    ///< -dibl(tox_eff)
  double body_gamma = 0.0;
  double phi_s = 0.0;
  double sqrt_phi_s = 0.0;  ///< sqrt(phi_s)
  double temp_shift = 0.0;  ///< -vth_tc * (T - 300)
  double delta_vth = 0.0;   ///< variation.delta_vth

  // --- gate tunneling -------------------------------------------------------
  double jg0 = 0.0;
  double alpha_v = 0.0;
  double tox_factor = 0.0;   ///< exp(-beta_tox * (tox_eff - tox_nom))
  double temp_factor = 0.0;  ///< 1 + gate_tc * (T - 300)
  double a_ov = 0.0;         ///< width * overlap_length
  double a_half = 0.0;       ///< (0.5 * width) * l_eff
  double c_gb = 0.0;         ///< (k_gb * width) * l_eff
  double half_n_vt = 0.0;    ///< (0.5 * n) * vt

  // --- junction BTBT --------------------------------------------------------
  double btbt_qn2 = 0.0;   ///< (2 * q) * halo_doping
  double vbi = 0.0;
  double b_eff = 0.0;      ///< b_btbt * (Eg(T)/Eg(300))^1.5
  double sqrt_eg = 0.0;    ///< sqrt(Eg(T))
  double btbt_pref = 0.0;  ///< (a_btbt * (width * junction_depth)) * 1e12
};

/// Precomputes the coefficients for one device instance.
DeviceCoeffs compileDevice(const DeviceParams& params, double width,
                           const DeviceVariation& variation,
                           const Environment& env);

/// Convenience overload from a Mosfet instance.
inline DeviceCoeffs compileDevice(const Mosfet& mosfet,
                                  const Environment& env) {
  return compileDevice(mosfet.params(), mosfet.width(), mosfet.variation(),
                       env);
}

/// Terminal currents at `bias`; bit-identical to Mosfet::currents at the
/// coefficients' environment.
TerminalCurrents compiledCurrents(const DeviceCoeffs& coeffs,
                                  const BiasPoint& bias);

/// Terminal selector for compiledTerminalCurrent (order matches the
/// SolverKernel's CSR incidence encoding).
enum class CompiledTerminal { kGate = 0, kDrain = 1, kSource = 2, kBulk = 3 };

namespace detail {

// The primitives the evaluation calls (util/simd.h: double and Lanes<W>).
using util::laneAbs, util::laneExp, util::laneGE, util::laneLT, util::laneMax,
    util::laneMin, util::laneSelect, util::laneSoftLog1pExp, util::laneSqrt,
    util::maskNot;

/// DeviceParams::thresholdVoltage with the bias-independent terms folded.
/// Mirrors its summation order exactly: vth_prefix is the (vth0 +
/// halo_shift) + roll_off prefix, then DIBL, body, temperature and
/// variation terms are added in the original order.
template <typename T>
inline T compiledVth(const DeviceCoeffs& c, T vds, T vsb) {
  const T zero(0.0);
  const T dibl_shift = T(c.neg_dibl) * laneMax(zero, vds);
  const T body_shift =
      T(c.body_gamma) *
      (laneSqrt(T(c.phi_s) + laneMax(zero, vsb)) - T(c.sqrt_phi_s));
  return T(c.vth_prefix) + dibl_shift + body_shift + T(c.temp_shift) +
         T(c.delta_vth);
}

/// tunnelDensity with the tox and temperature exponentials cached (the
/// trailing factors of the original product, so the association order is
/// kept); odd in vox via a sign select.
template <typename T>
inline T compiledTunnelDensity(const DeviceCoeffs& c, T vox) {
  const T mag = laneAbs(vox);
  const T j = T(c.jg0) * mag * laneExp(T(c.alpha_v) * (mag - T(1.0))) *
              T(c.tox_factor) * T(c.temp_factor);
  return laneSelect(laneGE(vox, T(0.0)), j, -j);
}

/// channelCurrent on cached coefficients (see models.cpp for the model).
template <typename T>
inline T compiledChannelCurrent(const DeviceCoeffs& c, T vgs, T vds, T vsb) {
  const T one(1.0);
  const T vth = compiledVth(c, vds, vsb);
  const T x = (vgs - vth) / T(c.two_n_vt);
  const T inv = laneSoftLog1pExp(x);
  const T drive = inv * inv / (one + T(c.theta_vsat) * inv);
  const T v_sat = T(c.n_vt) + T(c.zeta_two_n_vt) * inv;
  const T vds_factor = one - laneExp(-vds / v_sat);
  return T(c.channel_pref) * drive * vds_factor * (one + T(c.lambda) * vds);
}

/// Steep inversion logistic shared by the igcs/igcd channel components of
/// gateTunneling, at sorted-frame drain `vd` and source `vs`.
template <typename T>
inline T compiledInversionFactor(const DeviceCoeffs& c, T vg, T vd, T vs,
                                 T vb) {
  const T one(1.0);
  const T vth = compiledVth(c, laneAbs(vd - vs), vs - vb);
  return one / (one + laneExp(-((vg - vs) - vth) / T(c.half_n_vt)));
}

/// junctionBtbt on cached coefficients; below the 1e-12 V smoothed-bias
/// cut-off the current is selected to exactly zero.
template <typename T>
inline T compiledJunctionBtbt(const DeviceCoeffs& c, T vrev) {
  const T scale(0.01);
  const T v = scale * laneSoftLog1pExp(vrev / scale);
  const T field = laneSqrt(T(c.btbt_qn2) * (v + T(c.vbi)) / T(kEpsSi));
  const T current = T(c.btbt_pref) * (field / T(1e8)) * v / T(c.sqrt_eg) *
                    laneExp(-T(c.b_eff) / field);
  return laneSelect(laneLT(v, T(1e-12)), T(0.0), current);
}

/// One NMOS-frame terminal current, computing only the components that
/// terminal sums. The lower diffusion is the physical source (min/max
/// sort); the requested node's own tunneling and junction terms are used
/// while the channel term flips sign where the sort swapped drain and
/// source - the numbers Mosfet's swap-evaluate-swap-back produces.
template <typename T>
inline T nmosTerminalCurrent(const DeviceCoeffs& c,
                             const BasicBiasPoint<T>& bias,
                             CompiledTerminal terminal) {
  using Mask = util::MaskOf<T>;
  const Mask swapped = laneLT(bias.vd, bias.vs);
  const T vd = laneMax(bias.vd, bias.vs);
  const T vs = laneMin(bias.vd, bias.vs);

  switch (terminal) {
    case CompiledTerminal::kGate: {
      const T j_s = compiledTunnelDensity(c, bias.vg - vs);
      const T j_d = compiledTunnelDensity(c, bias.vg - vd);
      const T igso = T(c.a_ov) * j_s;
      const T igdo = T(c.a_ov) * j_d;
      const T inversion =
          compiledInversionFactor(c, bias.vg, vd, vs, bias.vb);
      const T igcs = inversion * T(c.a_half) * j_s;
      const T igcd = inversion * T(c.a_half) * j_d;
      const T igb = T(c.c_gb) * compiledTunnelDensity(c, bias.vg - bias.vb);
      return igso + igdo + igcs + igcd + igb;
    }
    case CompiledTerminal::kDrain:
    case CompiledTerminal::kSource: {
      // vx: the requested node's own potential, in the original frame.
      const bool want_drain = terminal == CompiledTerminal::kDrain;
      const T vx = want_drain ? bias.vd : bias.vs;
      const T ids =
          compiledChannelCurrent(c, bias.vg - vs, vd - vs, vs - bias.vb);
      // Channel current flows into the sorted-frame drain and out of the
      // sorted-frame source; the requested node is the sorted drain when
      // (kDrain, unswapped) or (kSource, swapped).
      const Mask node_is_drain = want_drain ? maskNot(swapped) : swapped;
      const T signed_ids = laneSelect(node_is_drain, ids, -ids);
      const T btbt = compiledJunctionBtbt(c, vx - bias.vb);
      const T j_x = compiledTunnelDensity(c, bias.vg - vx);
      const T inversion =
          compiledInversionFactor(c, bias.vg, vd, vs, bias.vb);
      return signed_ids + btbt - T(c.a_ov) * j_x -
             inversion * T(c.a_half) * j_x;
    }
    case CompiledTerminal::kBulk: {
      const T btbt_d = compiledJunctionBtbt(c, vd - bias.vb);
      const T btbt_s = compiledJunctionBtbt(c, vs - bias.vb);
      const T igb = T(c.c_gb) * compiledTunnelDensity(c, bias.vg - bias.vb);
      return -(btbt_d + btbt_s) - igb;
    }
  }
  return T(0.0);
}

}  // namespace detail

/// Single terminal current at `bias`, computing only the leakage
/// components that terminal actually sums - the per-node residual hot path
/// skips the channel and junction models entirely on gate-terminal
/// incidences, etc. At T = double (BiasPoint) it is bit-identical to the
/// corresponding member of compiledCurrents; at T = util::Lanes<W> each
/// lane agrees with the double evaluation of that lane's bias to a few
/// ulp of the bias's largest terminal current (more near vd == vs, where
/// the channel's 1 - e^(-vds/vsat) cancels). PMOS devices evaluate
/// mirrored and negated, like Mosfet.
template <typename T>
inline T compiledTerminalCurrent(const DeviceCoeffs& coeffs,
                                 const BasicBiasPoint<T>& bias,
                                 CompiledTerminal terminal) {
  if (!coeffs.pmos) {
    return detail::nmosTerminalCurrent(coeffs, bias, terminal);
  }
  const BasicBiasPoint<T> mirrored{-bias.vg, -bias.vd, -bias.vs, -bias.vb};
  return -detail::nmosTerminalCurrent(coeffs, mirrored, terminal);
}

/// Leakage decomposition; bit-identical to Mosfet::leakage.
LeakageBreakdown compiledLeakage(const DeviceCoeffs& coeffs,
                                 const BiasPoint& bias);

/// Channel-off classification; identical to Mosfet::isOff.
bool compiledIsOff(const DeviceCoeffs& coeffs, const BiasPoint& bias);

}  // namespace nanoleak::device
