/// \file
/// Lane-parallel device evaluation for SolverKernel::solveLanes.
///
/// Mirrors compiled_model.cpp's per-terminal evaluation with every
/// bias-dependent quantity widened to `util::Lanes<W>`: one call evaluates
/// the same device at W independent operating points (different node
/// voltages). The lanes share one DeviceCoeffs - every lane of a batch
/// runs at the same temperature, variations and rails - and each
/// coefficient is broadcast to all lanes where it is used. The control
/// flow that is data-dependent in the scalar model (drain/source frame
/// sort, the BTBT small-bias early-out, softLog1pExp's branches) becomes
/// masked blends.
///
/// Numeric contract: the operation sequence per lane matches the scalar
/// compiled model except that lane transcendentals come from
/// util::laneExp/laneLog1p instead of libm, and the drain/source swap is
/// folded into a sign blend. Lane results therefore agree with
/// compiledTerminalCurrent to a few ulp, not bitwise — the lane solver's
/// ≤1e-6 equivalence gate (bench_solver_kernel) pins that drift, and the
/// width-1 scalar backend bypasses this file entirely for bit-identity.
#pragma once

#include "device/compiled_model.h"
#include "util/constants.h"
#include "util/simd.h"

namespace nanoleak::device {

/// Lane bias point: absolute node potentials per lane.
template <std::size_t W>
struct LaneBias {
  util::Lanes<W> vg;
  util::Lanes<W> vd;
  util::Lanes<W> vs;
  util::Lanes<W> vb;
};

/// Lanewise ln(1 + e^x); the three branches of device::softLog1pExp as
/// blends over a shared laneExp evaluation.
template <std::size_t W>
inline util::Lanes<W> laneSoftLog1pExp(util::Lanes<W> x) {
  using util::Lanes;
  const Lanes<W> e = util::laneExp(x);
  const Lanes<W> mid = util::laneLog1p(e);
  return util::laneSelect(
      util::laneGT(x, Lanes<W>(40.0)), x,
      util::laneSelect(util::laneLT(x, Lanes<W>(-40.0)), e, mid));
}

namespace lane_detail {

/// compiledVth, lanewise.
template <std::size_t W>
inline util::Lanes<W> laneVth(const DeviceCoeffs& c, util::Lanes<W> vds,
                              util::Lanes<W> vsb) {
  using util::Lanes;
  const Lanes<W> zero(0.0);
  const Lanes<W> dibl_shift = Lanes<W>(c.neg_dibl) * laneMax(zero, vds);
  const Lanes<W> body_shift =
      Lanes<W>(c.body_gamma) *
      (laneSqrt(Lanes<W>(c.phi_s) + laneMax(zero, vsb)) -
       Lanes<W>(c.sqrt_phi_s));
  return Lanes<W>(c.vth_prefix) + dibl_shift + body_shift +
         Lanes<W>(c.temp_shift) + Lanes<W>(c.delta_vth);
}

/// compiledTunnelDensity, lanewise (odd in vox via a sign blend).
template <std::size_t W>
inline util::Lanes<W> laneTunnelDensity(const DeviceCoeffs& c,
                                        util::Lanes<W> vox) {
  using util::Lanes;
  const Lanes<W> mag = laneAbs(vox);
  const Lanes<W> j =
      Lanes<W>(c.jg0) * mag *
      util::laneExp(Lanes<W>(c.alpha_v) * (mag - Lanes<W>(1.0))) *
      Lanes<W>(c.tox_factor) * Lanes<W>(c.temp_factor);
  return util::laneSelect(util::laneGE(vox, Lanes<W>(0.0)), j, -j);
}

/// compiledChannelCurrent, lanewise.
template <std::size_t W>
inline util::Lanes<W> laneChannelCurrent(const DeviceCoeffs& c,
                                         util::Lanes<W> vgs,
                                         util::Lanes<W> vds,
                                         util::Lanes<W> vsb) {
  using util::Lanes;
  const Lanes<W> one(1.0);
  const Lanes<W> vth = laneVth(c, vds, vsb);
  const Lanes<W> x = (vgs - vth) / Lanes<W>(c.two_n_vt);
  const Lanes<W> inv = laneSoftLog1pExp(x);
  const Lanes<W> drive = inv * inv / (one + Lanes<W>(c.theta_vsat) * inv);
  const Lanes<W> v_sat = Lanes<W>(c.n_vt) + Lanes<W>(c.zeta_two_n_vt) * inv;
  const Lanes<W> vds_factor = one - util::laneExp(-vds / v_sat);
  return Lanes<W>(c.channel_pref) * drive * vds_factor *
         (one + Lanes<W>(c.lambda) * vds);
}

/// Steep inversion logistic (the igcs/igcd factor), lanewise.
template <std::size_t W>
inline util::Lanes<W> laneInversionFactor(const DeviceCoeffs& c,
                                          util::Lanes<W> vg,
                                          util::Lanes<W> vd,
                                          util::Lanes<W> vs,
                                          util::Lanes<W> vb) {
  using util::Lanes;
  const Lanes<W> one(1.0);
  const Lanes<W> vth = laneVth(c, laneAbs(vd - vs), vs - vb);
  return one /
         (one + util::laneExp(-((vg - vs) - vth) / Lanes<W>(c.half_n_vt)));
}

/// compiledJunctionBtbt, lanewise; the scalar < 1e-12 early-out becomes a
/// zero blend.
template <std::size_t W>
inline util::Lanes<W> laneJunctionBtbt(const DeviceCoeffs& c,
                                       util::Lanes<W> vrev) {
  using util::Lanes;
  const Lanes<W> scale(0.01);
  const Lanes<W> v = scale * laneSoftLog1pExp(vrev / scale);
  const Lanes<W> field = laneSqrt(Lanes<W>(c.btbt_qn2) *
                                  (v + Lanes<W>(c.vbi)) / Lanes<W>(kEpsSi));
  const Lanes<W> current = Lanes<W>(c.btbt_pref) *
                           (field / Lanes<W>(1e8)) * v / Lanes<W>(c.sqrt_eg) *
                           util::laneExp(-Lanes<W>(c.b_eff) / field);
  return util::laneSelect(util::laneLT(v, Lanes<W>(1e-12)), Lanes<W>(0.0),
                          current);
}

/// nmosTerminalCurrent, lanewise. The drain/source frame sort becomes
/// min/max plus a sign blend: the current at the *requested original node*
/// always uses that node's tunneling and junction components, while the
/// channel term flips sign in swapped lanes.
template <std::size_t W>
inline util::Lanes<W> laneNmosTerminalCurrent(const DeviceCoeffs& c,
                                              const LaneBias<W>& bias,
                                              CompiledTerminal terminal) {
  using util::LaneMask;
  using util::Lanes;
  const LaneMask<W> swapped = util::laneLT(bias.vd, bias.vs);
  const Lanes<W> vd = laneMax(bias.vd, bias.vs);
  const Lanes<W> vs = laneMin(bias.vd, bias.vs);

  switch (terminal) {
    case CompiledTerminal::kGate: {
      const Lanes<W> j_s = laneTunnelDensity(c, bias.vg - vs);
      const Lanes<W> j_d = laneTunnelDensity(c, bias.vg - vd);
      const Lanes<W> igso = Lanes<W>(c.a_ov) * j_s;
      const Lanes<W> igdo = Lanes<W>(c.a_ov) * j_d;
      const Lanes<W> inversion =
          laneInversionFactor(c, bias.vg, vd, vs, bias.vb);
      const Lanes<W> igcs = inversion * Lanes<W>(c.a_half) * j_s;
      const Lanes<W> igcd = inversion * Lanes<W>(c.a_half) * j_d;
      const Lanes<W> igb =
          Lanes<W>(c.c_gb) * laneTunnelDensity(c, bias.vg - bias.vb);
      return igso + igdo + igcs + igcd + igb;
    }
    case CompiledTerminal::kDrain:
    case CompiledTerminal::kSource: {
      // vx: the requested node's own potential, in the original frame.
      const Lanes<W> vx =
          terminal == CompiledTerminal::kDrain ? bias.vd : bias.vs;
      const Lanes<W> ids =
          laneChannelCurrent(c, bias.vg - vs, vd - vs, vs - bias.vb);
      // Channel current flows into the sorted-frame drain and out of the
      // sorted-frame source; the requested node is the sorted drain when
      // (kDrain, unswapped) or (kSource, swapped).
      const bool want_drain = terminal == CompiledTerminal::kDrain;
      const LaneMask<W> node_is_drain =
          want_drain ? util::maskNot(swapped) : swapped;
      const Lanes<W> signed_ids =
          util::laneSelect(node_is_drain, ids, -ids);
      const Lanes<W> btbt = laneJunctionBtbt(c, vx - bias.vb);
      const Lanes<W> j_x = laneTunnelDensity(c, bias.vg - vx);
      const Lanes<W> inversion =
          laneInversionFactor(c, bias.vg, vd, vs, bias.vb);
      return signed_ids + btbt - Lanes<W>(c.a_ov) * j_x -
             inversion * Lanes<W>(c.a_half) * j_x;
    }
    case CompiledTerminal::kBulk: {
      const Lanes<W> btbt_d = laneJunctionBtbt(c, vd - bias.vb);
      const Lanes<W> btbt_s = laneJunctionBtbt(c, vs - bias.vb);
      const Lanes<W> igb =
          Lanes<W>(c.c_gb) * laneTunnelDensity(c, bias.vg - bias.vb);
      return -(btbt_d + btbt_s) - igb;
    }
  }
  return util::Lanes<W>(0.0);
}

}  // namespace lane_detail

/// Lane analog of compiledTerminalCurrent: the current flowing out of
/// `terminal` at each lane's bias. PMOS devices evaluate mirrored and
/// negated, exactly like the scalar model.
template <std::size_t W>
inline util::Lanes<W> laneTerminalCurrent(const DeviceCoeffs& c,
                                          const LaneBias<W>& bias,
                                          CompiledTerminal terminal) {
  if (!c.pmos) {
    return lane_detail::laneNmosTerminalCurrent(c, bias, terminal);
  }
  const LaneBias<W> m{-bias.vg, -bias.vd, -bias.vs, -bias.vb};
  return -lane_detail::laneNmosTerminalCurrent(c, m, terminal);
}

}  // namespace nanoleak::device
