// Pins the compiled device evaluation bit-identical to the interpreted
// Mosfet path across flavours, polarities, temperatures, variations and
// randomized biases - the contract the SolverKernel's equivalence with
// DcSolver rests on - and the lane instantiation of the same template
// (util::Lanes<W>) to its double instantiation within a few ulp, lane by
// lane, which is what SolverKernel::solveLanes evaluates.
#include "device/compiled_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "device/device_params.h"
#include "device/mosfet.h"
#include "util/rng.h"
#include "util/simd.h"

namespace nanoleak::device {
namespace {

std::vector<DeviceParams> allFlavours() {
  return {d25SNmos(),  d25SPmos(),  d25GNmos(),      d25GPmos(),
          d25JnNmos(), d25JnPmos(), d50MediciNmos(), d50MediciPmos()};
}

DeviceVariation randomVariation(Rng& rng) {
  return DeviceVariation{rng.uniform(-4e-9, 4e-9), rng.uniform(-2e-10, 2e-10),
                         rng.uniform(-0.09, 0.09)};
}

BiasPoint randomBias(Rng& rng) {
  // Leakage-mode biases plus bracket excursions the solver probes.
  return BiasPoint{rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3),
                   rng.uniform(-0.3, 1.3), rng.uniform(0.0, 1.0)};
}

/// Ties and rails: vd == vs, exact 0 V / VDD terminals (the PMOS mirror
/// turns a 0 V rail into -0.0, so ties compare +0.0 against -0.0), and
/// junctions forward-biased past the BTBT cut-off (NMOS frame vrev of
/// -0.3 V or -0.25 V: smoothed bias < 1e-12 V) next to ones just short of
/// it (-0.2 V).
std::vector<BiasPoint> tieAndRailBiases() {
  return {BiasPoint{0.0, 0.0, 0.0, 0.0},    BiasPoint{1.0, 1.0, 1.0, 1.0},
          BiasPoint{1.0, 0.0, 0.0, 0.0},    BiasPoint{0.0, 1.0, 1.0, 1.0},
          BiasPoint{0.0, 1.0, 1.0, 0.0},    BiasPoint{1.0, 0.0, 0.0, 1.0},
          BiasPoint{1.0, 0.5, 0.5, 0.0},    BiasPoint{0.0, 0.0, 1.0, 0.0},
          BiasPoint{1.0, 1.0, 0.0, 1.0},    BiasPoint{0.0, 1.0, 0.0, 1.0},
          BiasPoint{0.0, -0.3, -0.3, 0.0},  BiasPoint{1.0, -0.3, 0.4, 0.0},
          BiasPoint{0.0, 0.2, -0.25, 0.0},  BiasPoint{1.0, -0.2, 0.0, 0.0},
          BiasPoint{0.0, 1.3, 1.3, 1.0},    BiasPoint{1.0, 1.25, 0.0, 1.0},
          BiasPoint{0.5, 1.2, 1.0, 1.0},    BiasPoint{-0.0, 0.0, -0.0, 0.0}};
}

constexpr std::array<CompiledTerminal, 4> kTerminals{
    CompiledTerminal::kGate, CompiledTerminal::kDrain,
    CompiledTerminal::kSource, CompiledTerminal::kBulk};

TEST(CompiledModelTest, CurrentsBitIdenticalToMosfet) {
  Rng rng(20260729);
  for (const DeviceParams& params : allFlavours()) {
    for (double t : {300.0, 380.0, 412.7}) {
      const Environment env{t};
      for (int rep = 0; rep < 40; ++rep) {
        const DeviceVariation var = randomVariation(rng);
        const double width = rng.uniform(80e-9, 400e-9);
        const Mosfet mosfet(params, width, var);
        const DeviceCoeffs coeffs = compileDevice(mosfet, env);
        const BiasPoint bias = randomBias(rng);

        const TerminalCurrents want = mosfet.currents(bias, env);
        const TerminalCurrents got = compiledCurrents(coeffs, bias);
        EXPECT_EQ(want.gate, got.gate) << params.name << " T=" << t;
        EXPECT_EQ(want.drain, got.drain) << params.name << " T=" << t;
        EXPECT_EQ(want.source, got.source) << params.name << " T=" << t;
        EXPECT_EQ(want.bulk, got.bulk) << params.name << " T=" << t;
      }
    }
  }
}

TEST(CompiledModelTest, SingleTerminalCurrentsBitIdenticalToFullEval) {
  Rng rng(424242);
  for (const DeviceParams& params : allFlavours()) {
    for (double t : {300.0, 380.0}) {
      const Environment env{t};
      for (int rep = 0; rep < 30; ++rep) {
        const DeviceVariation var = randomVariation(rng);
        const double width = rng.uniform(80e-9, 400e-9);
        const Mosfet mosfet(params, width, var);
        const DeviceCoeffs coeffs = compileDevice(mosfet, env);

        std::vector<BiasPoint> biases = tieAndRailBiases();
        biases.push_back(randomBias(rng));
        for (const BiasPoint& bias : biases) {
          const TerminalCurrents full = compiledCurrents(coeffs, bias);
          EXPECT_EQ(full.gate, compiledTerminalCurrent(
                                   coeffs, bias, CompiledTerminal::kGate));
          EXPECT_EQ(full.drain, compiledTerminalCurrent(
                                    coeffs, bias, CompiledTerminal::kDrain));
          EXPECT_EQ(full.source,
                    compiledTerminalCurrent(coeffs, bias,
                                            CompiledTerminal::kSource));
          EXPECT_EQ(full.bulk, compiledTerminalCurrent(
                                   coeffs, bias, CompiledTerminal::kBulk));
        }
      }
    }
  }
}

TEST(CompiledModelTest, LeakageAndIsOffBitIdenticalToMosfet) {
  Rng rng(777);
  for (const DeviceParams& params : allFlavours()) {
    for (double t : {300.0, 380.0}) {
      const Environment env{t};
      for (int rep = 0; rep < 40; ++rep) {
        const DeviceVariation var = randomVariation(rng);
        const double width = rng.uniform(80e-9, 400e-9);
        const Mosfet mosfet(params, width, var);
        const DeviceCoeffs coeffs = compileDevice(mosfet, env);
        const BiasPoint bias = randomBias(rng);

        EXPECT_EQ(mosfet.isOff(bias, env), compiledIsOff(coeffs, bias));
        const LeakageBreakdown want = mosfet.leakage(bias, env);
        const LeakageBreakdown got = compiledLeakage(coeffs, bias);
        EXPECT_EQ(want.subthreshold, got.subthreshold) << params.name;
        EXPECT_EQ(want.gate, got.gate) << params.name;
        EXPECT_EQ(want.btbt, got.btbt) << params.name;
      }
    }
  }
}

/// Rail-exact and degenerate biases (equal drain/source, negative vrev,
/// zero vox) exercise every branch of the compiled evaluation.
TEST(CompiledModelTest, EdgeBiasesBitIdentical) {
  const Environment env{300.0};
  for (const DeviceParams& params : allFlavours()) {
    const Mosfet mosfet(params, 150e-9);
    const DeviceCoeffs coeffs = compileDevice(mosfet, env);
    for (const BiasPoint& bias :
         {BiasPoint{0.0, 0.0, 0.0, 0.0}, BiasPoint{1.0, 1.0, 1.0, 1.0},
          BiasPoint{0.0, 1.0, 0.0, 0.0}, BiasPoint{1.0, 0.0, 1.0, 0.0},
          BiasPoint{0.5, 0.5, 0.5, 0.0}, BiasPoint{1.0, 0.3, 0.3, 0.0},
          BiasPoint{-0.3, 1.3, -0.3, 0.0}}) {
      const TerminalCurrents want = mosfet.currents(bias, env);
      const TerminalCurrents got = compiledCurrents(coeffs, bias);
      EXPECT_EQ(want.gate, got.gate) << params.name;
      EXPECT_EQ(want.drain, got.drain) << params.name;
      EXPECT_EQ(want.source, got.source) << params.name;
      EXPECT_EQ(want.bulk, got.bulk) << params.name;
    }
  }
}

/// Evaluates every terminal of `coeffs` at W biases at once and checks
/// each lane against the double instantiation at that lane's bias. Lanes
/// run util::laneExp/laneLog1p (a few ulp from libm) through the same
/// operation sequence, so a lane may differ from the double result by a
/// few ulp of the components the terminal sums; components cancel inside
/// one terminal, so the bound is 32 ulp of the bias's largest terminal
/// current (over 480k random biases with |vd - vs| >= 50 mV the worst
/// seen was 13), and exact agreement where the double result is zero.
template <std::size_t W>
void expectLanesMatchDouble(const DeviceCoeffs& coeffs,
                            const std::vector<BiasPoint>& biases) {
  constexpr double kUlps = 32.0;
  for (std::size_t first = 0; first < biases.size(); first += W) {
    BasicBiasPoint<util::Lanes<W>> lanes{
        util::Lanes<W>(0.0), util::Lanes<W>(0.0), util::Lanes<W>(0.0),
        util::Lanes<W>(0.0)};
    std::array<BiasPoint, W> lane_bias;
    for (std::size_t lane = 0; lane < W; ++lane) {
      lane_bias[lane] = biases[std::min(first + lane, biases.size() - 1)];
      lanes.vg.setLane(lane, lane_bias[lane].vg);
      lanes.vd.setLane(lane, lane_bias[lane].vd);
      lanes.vs.setLane(lane, lane_bias[lane].vs);
      lanes.vb.setLane(lane, lane_bias[lane].vb);
    }
    for (std::size_t lane = 0; lane < W; ++lane) {
      double scale = 0.0;
      for (const CompiledTerminal terminal : kTerminals) {
        scale = std::max(scale, std::abs(compiledTerminalCurrent(
                                    coeffs, lane_bias[lane], terminal)));
      }
      const double tol = kUlps * std::numeric_limits<double>::epsilon() * scale;
      for (const CompiledTerminal terminal : kTerminals) {
        const double want =
            compiledTerminalCurrent(coeffs, lane_bias[lane], terminal);
        const double got = compiledTerminalCurrent(coeffs, lanes, terminal)[lane];
        const BiasPoint& b = lane_bias[lane];
        if (want == 0.0) {
          EXPECT_EQ(got, 0.0);
        } else {
          EXPECT_NEAR(got, want, tol)
              << "W=" << W << " terminal " << static_cast<int>(terminal)
              << " bias (" << b.vg << ", " << b.vd << ", " << b.vs << ", "
              << b.vb << ")";
        }
      }
    }
  }
}

TEST(CompiledModelTest, LaneTerminalCurrentsMatchDoubleInstantiation) {
  Rng rng(160005);
  for (const DeviceParams& params : allFlavours()) {
    for (double t : {300.0, 380.0, 412.7}) {
      const Environment env{t};
      for (int rep = 0; rep < 6; ++rep) {
        const DeviceVariation var = randomVariation(rng);
        const double width = rng.uniform(80e-9, 400e-9);
        const DeviceCoeffs coeffs =
            compileDevice(Mosfet(params, width, var), env);
        std::vector<BiasPoint> biases = tieAndRailBiases();
        while (biases.size() < 40) {
          // Near a drain/source tie the channel's 1 - e^(-vds/vsat)
          // cancels and amplifies laneExp's few-ulp error by vsat/|vds|
          // (thousands of ulp at |vds| ~ 1e-5 V); the few-ulp bound holds
          // at exact ties (the list above) and from |vds| >= 50 mV.
          const BiasPoint bias = randomBias(rng);
          if (std::abs(bias.vd - bias.vs) >= 0.05) {
            biases.push_back(bias);
          }
        }
        // SolverKernel::solveLanes' width on this build, and the AVX2
        // width on every build (the generic backend where AVX2 is off).
        expectLanesMatchDouble<util::kNativeLaneWidth>(coeffs, biases);
        expectLanesMatchDouble<4>(coeffs, biases);
      }
    }
  }
}

}  // namespace
}  // namespace nanoleak::device
