#include "device/models.h"

#include <algorithm>
#include <cmath>

#include "util/constants.h"
#include "util/simd.h"

namespace nanoleak::device {

namespace {

/// Signed tunneling density J(vox) [A/m^2]: odd in vox, smooth at 0,
/// exponential growth with |vox| and exponential suppression with tox.
double tunnelDensity(const DeviceParams& p, double tox_eff, double vox,
                     double temperature_k) {
  const double mag = std::abs(vox);
  const double j =
      p.jg0 * mag * std::exp(p.alpha_v * (mag - 1.0)) *
      std::exp(-p.beta_tox * (tox_eff - p.tox_nom)) *
      (1.0 + p.gate_tc * (temperature_k - kRoomTemperatureK));
  return vox >= 0.0 ? j : -j;
}

}  // namespace

double softPlus(double x, double scale) {
  return scale * util::laneSoftLog1pExp(x / scale);
}

double GateTunneling::magnitude() const {
  return std::abs(igso) + std::abs(igdo) + std::abs(igcs) + std::abs(igcd) +
         std::abs(igb);
}

double channelCurrent(const DeviceParams& params, const DeviceVariation& var,
                      double width, double vgs, double vds, double vsb,
                      const Environment& env) {
  const double t = env.temperature_k;
  const double vt = thermalVoltage(t);
  const double l_eff = params.effectiveLength(var);
  const double tox_eff = params.effectiveTox(var);
  const double n = params.slopeFactor(tox_eff);
  const double vth = params.thresholdVoltage(vds, vsb, t, var);

  // Specific current: mobility ~ T^-mu_tc and the vT^2 prefactor give the
  // (T/300)^(2-mu_tc) scaling; the dominant T dependence remains the
  // exponential through Vth/n.vT below threshold.
  const double i_spec =
      params.i_spec * std::pow(t / kRoomTemperatureK, 2.0 - params.mu_tc);

  const double x = (vgs - vth) / (2.0 * n * vt);
  const double inv = util::laneSoftLog1pExp(x);  // smooth "inversion charge"
  // Velocity saturation / mobility degradation tempers strong inversion
  // (inv >> 1) without touching the subthreshold exponential (inv << 1).
  const double drive = inv * inv / (1.0 + params.theta_vsat * inv);

  // Blended saturation voltage: n.vT in weak inversion (diffusion-limited),
  // ~zeta.(Vgs-Vth) in strong inversion (drift-limited). Keeps the linear-
  // region conductance of ON devices realistic (kilo-ohm class) instead of
  // the Ion/vT overestimate a pure diffusion factor would give.
  const double v_sat = n * vt + params.zeta_sat * (2.0 * n * vt) * inv;
  const double vds_factor = 1.0 - std::exp(-vds / v_sat);

  return i_spec * (width / l_eff) * drive * vds_factor *
         (1.0 + params.lambda * vds);
}

GateTunneling gateTunneling(const DeviceParams& params,
                            const DeviceVariation& var, double width,
                            double vg, double vd, double vs, double vb,
                            const Environment& env) {
  const double t = env.temperature_k;
  const double vt = thermalVoltage(t);
  const double tox_eff = params.effectiveTox(var);
  const double l_eff = params.effectiveLength(var);
  const double n = params.slopeFactor(tox_eff);

  GateTunneling g;

  // Overlap (edge direct tunneling): always present; the overlap region is
  // an extension of the diffusion, so the oxide voltage is vg - vs/vd.
  const double a_ov = width * params.overlap_length;
  g.igso = a_ov * tunnelDensity(params, tox_eff, vg - vs, t);
  g.igdo = a_ov * tunnelDensity(params, tox_eff, vg - vd, t);

  // Channel tunneling requires an inversion layer; gate it with a smooth
  // logistic in (vgs - vth). The channel is integrated trapezoidally: half
  // the area sees the source-end oxide voltage, half the drain-end.
  const double vgs = vg - vs;
  const double vds = vd - vs;
  const double vsb = vs - vb;
  const double vth = params.thresholdVoltage(std::abs(vds), vsb, t, var);
  // Steep logistic: the inversion layer (and with it gate-to-channel
  // tunneling) collapses quickly below threshold.
  const double inversion =
      1.0 / (1.0 + std::exp(-(vgs - vth) / (0.5 * n * vt)));
  const double a_half = 0.5 * width * l_eff;
  g.igcs = inversion * a_half * tunnelDensity(params, tox_eff, vg - vs, t);
  g.igcd = inversion * a_half * tunnelDensity(params, tox_eff, vg - vd, t);

  // Gate-to-bulk: small fraction of the full-area density at vgb.
  g.igb = params.k_gb * width * l_eff *
          tunnelDensity(params, tox_eff, vg - vb, t);
  return g;
}

double junctionBtbt(const DeviceParams& params, const DeviceVariation& var,
                    double width, double vrev, const Environment& env) {
  (void)var;  // geometry variation affects junctions only weakly
  const double t = env.temperature_k;

  // Smoothly clamp the reverse bias to >= 0 so the model is C1 through 0
  // (forward-biased junctions do not band-to-band tunnel).
  const double v = softPlus(vrev, 0.01);
  if (v < 1e-12) {
    return 0.0;
  }

  // Peak field of an abrupt one-sided junction: E = sqrt(2qN(V+Vbi)/eps).
  const double field = std::sqrt(2.0 * kElementaryCharge * params.halo_doping *
                                 (v + params.vbi) / kEpsSi);

  // Band gap narrows with temperature (Varshni), which raises the tunneling
  // probability marginally - the paper's "BTBT increases (marginally) with
  // temperature".
  const double eg = siliconBandGapEv(t);
  const double eg300 = siliconBandGapEv(kRoomTemperatureK);
  const double b_eff = params.b_btbt * std::pow(eg / eg300, 1.5);

  const double area = width * params.junction_depth;
  return params.a_btbt * area * 1e12 * (field / 1e8) * v / std::sqrt(eg) *
         std::exp(-b_eff / field);
}

}  // namespace nanoleak::device
