// A MOSFET as the paper's Fig. 3 network of voltage-controlled current
// sources: given its four node potentials it reports the current drawn
// through each terminal and its leakage decomposition.
#pragma once

#include "device/device_params.h"
#include "device/leakage_breakdown.h"
#include "device/models.h"

namespace nanoleak::device {

/// Currents flowing FROM the connected nodes INTO the device, one per
/// terminal. Kirchhoff: ig + id + is + ib == 0 (up to rounding).
struct TerminalCurrents {
  double gate = 0.0;
  double drain = 0.0;
  double source = 0.0;
  double bulk = 0.0;

  double sum() const { return gate + drain + source + bulk; }
};

/// Absolute node potentials at the four terminals [V]. `T` is double for
/// one operating point (BiasPoint); the compiled model also evaluates
/// util::Lanes<W>, W operating points at once (compiled_model.h).
template <typename T>
struct BasicBiasPoint {
  T vg = T(0.0);
  T vd = T(0.0);
  T vs = T(0.0);
  T vb = T(0.0);
};

/// The terminal potentials of one operating point.
using BiasPoint = BasicBiasPoint<double>;

/// One transistor instance: flavour parameters, width, and per-instance
/// process variation. PMOS devices are evaluated by mirroring all voltages
/// and negating all currents through the NMOS-convention models, the
/// standard complementary-device transform.
class Mosfet {
 public:
  Mosfet(DeviceParams params, double width,
         DeviceVariation variation = DeviceVariation{});

  const DeviceParams& params() const { return params_; }
  double width() const { return width_; }
  const DeviceVariation& variation() const { return variation_; }
  void setVariation(const DeviceVariation& variation) {
    variation_ = variation;
  }

  /// Terminal currents at the given bias (see TerminalCurrents).
  TerminalCurrents currents(const BiasPoint& bias,
                            const Environment& env) const;

  /// Leakage decomposition at the given bias (see LeakageBreakdown for the
  /// attribution rules).
  LeakageBreakdown leakage(const BiasPoint& bias,
                           const Environment& env) const;

  /// True if the channel is off (|Vgs| below threshold) at this bias.
  bool isOff(const BiasPoint& bias, const Environment& env) const;

 private:
  /// NMOS-convention evaluation (PMOS callers pre-mirror the bias).
  TerminalCurrents nmosCurrents(const BiasPoint& bias,
                                const Environment& env) const;
  LeakageBreakdown nmosLeakage(const BiasPoint& bias,
                               const Environment& env) const;
  bool nmosIsOff(const BiasPoint& bias, const Environment& env) const;
  static BiasPoint mirrored(const BiasPoint& bias);

  DeviceParams params_;
  double width_;
  DeviceVariation variation_;
};

}  // namespace nanoleak::device
