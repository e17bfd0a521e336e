#include "device/compiled_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/constants.h"

namespace nanoleak::device {
namespace {

using detail::compiledChannelCurrent, detail::compiledInversionFactor,
    detail::compiledJunctionBtbt, detail::compiledTunnelDensity,
    detail::compiledVth;

/// gateTunneling on cached coefficients, in the sorted frame.
GateTunneling compiledGateTunneling(const DeviceCoeffs& c, double vg,
                                    double vd, double vs, double vb) {
  const double j_s = compiledTunnelDensity(c, vg - vs);
  const double j_d = compiledTunnelDensity(c, vg - vd);
  const double inversion = compiledInversionFactor(c, vg, vd, vs, vb);
  GateTunneling g;
  g.igso = c.a_ov * j_s;
  g.igdo = c.a_ov * j_d;
  g.igcs = inversion * c.a_half * j_s;
  g.igcd = inversion * c.a_half * j_d;
  g.igb = c.c_gb * compiledTunnelDensity(c, vg - vb);
  return g;
}

BiasPoint mirrored(const BiasPoint& bias) {
  return BiasPoint{-bias.vg, -bias.vd, -bias.vs, -bias.vb};
}

/// Mosfet's evaluation frame: the physical source is whichever diffusion
/// sits at the lower potential (`swapped` when that is the drain node).
struct SortedFrame {
  double vd;
  double vs;
  bool swapped;
};

SortedFrame sortedFrame(const BiasPoint& bias) {
  const bool swapped = bias.vd < bias.vs;
  return swapped ? SortedFrame{bias.vs, bias.vd, true}
                 : SortedFrame{bias.vd, bias.vs, false};
}

TerminalCurrents nmosCurrents(const DeviceCoeffs& c, const BiasPoint& bias) {
  // Evaluate in the sorted frame and swap the results back afterwards.
  const auto [vd, vs, swapped] = sortedFrame(bias);
  const double vgs = bias.vg - vs;
  const double vds = vd - vs;
  const double vsb = vs - bias.vb;

  const double ids = compiledChannelCurrent(c, vgs, vds, vsb);
  const GateTunneling gt =
      compiledGateTunneling(c, bias.vg, vd, vs, bias.vb);
  const double btbt_d = compiledJunctionBtbt(c, vd - bias.vb);
  const double btbt_s = compiledJunctionBtbt(c, vs - bias.vb);

  TerminalCurrents out;
  out.gate = gt.totalFromGate();
  out.drain = ids + btbt_d - gt.igdo - gt.igcd;
  out.source = -ids + btbt_s - gt.igso - gt.igcs;
  out.bulk = -(btbt_d + btbt_s) - gt.igb;
  if (swapped) {
    std::swap(out.drain, out.source);
  }
  return out;
}

bool nmosIsOff(const DeviceCoeffs& c, const BiasPoint& bias) {
  const auto [vd, vs, swapped] = sortedFrame(bias);
  const double vth = compiledVth(c, vd - vs, vs - bias.vb);
  return (bias.vg - vs) < std::max(vth, kOffClassificationFloor);
}

LeakageBreakdown nmosLeakage(const DeviceCoeffs& c, const BiasPoint& bias) {
  const auto [vd, vs, swapped] = sortedFrame(bias);
  const double vgs = bias.vg - vs;
  const double vds = vd - vs;
  const double vsb = vs - bias.vb;

  LeakageBreakdown breakdown;
  if (nmosIsOff(c, bias)) {
    breakdown.subthreshold =
        std::abs(compiledChannelCurrent(c, vgs, vds, vsb));
  }
  breakdown.gate =
      compiledGateTunneling(c, bias.vg, vd, vs, bias.vb).magnitude();
  breakdown.btbt = compiledJunctionBtbt(c, vd - bias.vb) +
                   compiledJunctionBtbt(c, vs - bias.vb);
  return breakdown;
}

}  // namespace

DeviceCoeffs compileDevice(const DeviceParams& p, double width,
                           const DeviceVariation& var,
                           const Environment& env) {
  const double t = env.temperature_k;
  const double l_eff = p.effectiveLength(var);
  const double tox_eff = p.effectiveTox(var);
  const double n = p.slopeFactor(tox_eff);

  DeviceCoeffs c;
  c.pmos = p.polarity == Polarity::kPmos;
  c.width = width;

  c.vt = thermalVoltage(t);
  c.i_spec_t = p.i_spec * std::pow(t / kRoomTemperatureK, 2.0 - p.mu_tc);
  c.channel_pref = c.i_spec_t * (width / l_eff);
  c.n_vt = n * c.vt;
  c.two_n_vt = 2.0 * n * c.vt;
  c.zeta_two_n_vt = p.zeta_sat * (2.0 * n * c.vt);
  c.theta_vsat = p.theta_vsat;
  c.lambda = p.lambda;

  const double halo_shift = p.k_vth_halo * std::log(p.halo_doping / p.halo_nom);
  const double roll_off = -p.vth_roll * std::exp(-l_eff / p.l_roll);
  c.vth_prefix = p.vth0 + halo_shift + roll_off;
  c.neg_dibl = -p.dibl(tox_eff);
  c.body_gamma = p.body_gamma;
  c.phi_s = p.phi_s;
  c.sqrt_phi_s = std::sqrt(p.phi_s);
  c.temp_shift = -p.vth_tc * (t - kRoomTemperatureK);
  c.delta_vth = var.delta_vth;

  c.jg0 = p.jg0;
  c.alpha_v = p.alpha_v;
  c.tox_factor = std::exp(-p.beta_tox * (tox_eff - p.tox_nom));
  c.temp_factor = 1.0 + p.gate_tc * (t - kRoomTemperatureK);
  c.a_ov = width * p.overlap_length;
  c.a_half = 0.5 * width * l_eff;
  c.c_gb = p.k_gb * width * l_eff;
  c.half_n_vt = 0.5 * n * c.vt;

  c.btbt_qn2 = 2.0 * kElementaryCharge * p.halo_doping;
  c.vbi = p.vbi;
  const double eg = siliconBandGapEv(t);
  const double eg300 = siliconBandGapEv(kRoomTemperatureK);
  c.b_eff = p.b_btbt * std::pow(eg / eg300, 1.5);
  c.sqrt_eg = std::sqrt(eg);
  c.btbt_pref = p.a_btbt * (width * p.junction_depth) * 1e12;
  return c;
}

TerminalCurrents compiledCurrents(const DeviceCoeffs& coeffs,
                                  const BiasPoint& bias) {
  if (!coeffs.pmos) {
    return nmosCurrents(coeffs, bias);
  }
  const TerminalCurrents mirror = nmosCurrents(coeffs, mirrored(bias));
  return TerminalCurrents{-mirror.gate, -mirror.drain, -mirror.source,
                          -mirror.bulk};
}

LeakageBreakdown compiledLeakage(const DeviceCoeffs& coeffs,
                                 const BiasPoint& bias) {
  if (!coeffs.pmos) {
    return nmosLeakage(coeffs, bias);
  }
  return nmosLeakage(coeffs, mirrored(bias));
}

bool compiledIsOff(const DeviceCoeffs& coeffs, const BiasPoint& bias) {
  if (!coeffs.pmos) {
    return nmosIsOff(coeffs, bias);
  }
  return nmosIsOff(coeffs, mirrored(bias));
}

}  // namespace nanoleak::device
