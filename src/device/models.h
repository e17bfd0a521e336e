// Analytic compact models for the three leakage mechanisms plus a unified
// smooth I-V for the channel (needed so ON devices hold nets at the rails
// with a realistic on-conductance while OFF devices leak).
//
// All functions here are written in NMOS convention: voltages are
// source-referenced (vgs, vds >= 0 in normal operation, vsb >= 0 in reverse
// body bias) and returned currents are positive flowing drain -> source
// (channel) or from the gate into the electrode named by the component
// (tunneling). Mosfet (mosfet.h) maps PMOS devices and arbitrary terminal
// orderings onto this convention.
#pragma once

#include "device/device_params.h"

namespace nanoleak::device {

/// Environment for a model evaluation.
struct Environment {
  double temperature_k = 300.0;
};

/// Channel (subthreshold + on) current, drain -> source, for vds >= 0.
///
/// EKV-style interpolation: exponential below threshold (slope n.vT per
/// e-fold, DIBL via Vth(vds)), smoothly saturating above threshold with a
/// blended saturation voltage so the on-conductance near vds = 0 is
/// Ion/Vdsat-like rather than Ion/vT-like.
double channelCurrent(const DeviceParams& params, const DeviceVariation& var,
                      double width, double vgs, double vds, double vsb,
                      const Environment& env);

/// Gate tunneling components. Positive values flow FROM the gate INTO the
/// named electrode; negative values flow into the gate.
struct GateTunneling {
  double igso = 0.0;  ///< gate <-> source overlap
  double igdo = 0.0;  ///< gate <-> drain overlap
  double igcs = 0.0;  ///< gate <-> channel, source end
  double igcd = 0.0;  ///< gate <-> channel, drain end
  double igb = 0.0;   ///< gate <-> bulk

  /// Total current leaving the gate terminal.
  double totalFromGate() const { return igso + igdo + igcs + igcd + igb; }
  /// Sum of magnitudes (the "gate leakage" the paper reports).
  double magnitude() const;
};

/// Evaluates all gate-tunneling components at the given NMOS-convention
/// node voltages (vg, vd, vs, vb are absolute node potentials).
GateTunneling gateTunneling(const DeviceParams& params,
                            const DeviceVariation& var, double width,
                            double vg, double vd, double vs, double vb,
                            const Environment& env);

/// Junction band-to-band tunneling current for one S/D junction at reverse
/// bias `vrev` (diffusion at +vrev vs bulk). Positive current flows from
/// the diffusion into the bulk. Smoothly ~0 for vrev <= 0.
double junctionBtbt(const DeviceParams& params, const DeviceVariation& var,
                    double width, double vrev, const Environment& env);

/// Smooth positive-part helper: softplus with scale `s` (C-infinity, equals
/// max(0,x) asymptotically). Exposed for tests.
double softPlus(double x, double scale);

/// OFF-classification floor [V]: a device whose Vgs is within this of its
/// source is logically OFF even when process/temperature push Vth lower
/// (see Mosfet::nmosIsOff for the rationale). Shared with compiled_model.
inline constexpr double kOffClassificationFloor = 0.25;

}  // namespace nanoleak::device
