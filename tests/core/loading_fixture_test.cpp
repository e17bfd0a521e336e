#include "core/loading_fixture.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "util/error.h"
#include "util/units.h"

namespace nanoleak::core {
namespace {

TEST(LoadingFixtureTest, RejectsBadConstruction) {
  EXPECT_THROW(
      LoadingFixture(gates::GateKind::kNand2, {true},
                     device::defaultTechnology()),
      Error);
  EXPECT_THROW(
      LoadingFixture(gates::GateKind::kDff, {true},
                     device::defaultTechnology()),
      Error);
}

TEST(LoadingFixtureTest, NominalSolveProducesPinCurrents) {
  LoadingFixture fx(gates::GateKind::kInv, {false},
                    device::defaultTechnology());
  const FixtureResult r = fx.solve();
  ASSERT_EQ(r.pin_currents_into_net.size(), 1u);
  // Pin at '0' injects current INTO the net (raises it) - paper section 4.
  EXPECT_GT(r.pin_currents_into_net[0], 0.0);
  EXPECT_GT(toNanoAmps(r.pin_currents_into_net[0]), 50.0);

  LoadingFixture fx1(gates::GateKind::kInv, {true},
                     device::defaultTechnology());
  const FixtureResult r1 = fx1.solve();
  // Pin at '1' draws current OUT of the net (droops it from VDD).
  EXPECT_LT(r1.pin_currents_into_net[0], 0.0);
}

TEST(LoadingFixtureTest, PinVoltagesNearLogicLevels) {
  LoadingFixture fx(gates::GateKind::kNand2, {false, true},
                    device::defaultTechnology());
  const FixtureResult r = fx.solve();
  EXPECT_LT(r.pin_voltages[0], 0.05);
  EXPECT_GT(r.pin_voltages[1], 0.95);
  EXPECT_GT(r.output_voltage, 0.95);  // NAND(0,1) = 1
}

TEST(LoadingFixtureTest, InputLoadingRaisesLowPin) {
  LoadingFixture fx(gates::GateKind::kInv, {false},
                    device::defaultTechnology());
  const double v0 = fx.solve().pin_voltages[0];
  fx.setInputLoading(nA(3000.0));
  const double v1 = fx.solve().pin_voltages[0];
  EXPECT_GT(v1, v0 + 1e-3);  // at least a millivolt of rise
  EXPECT_LT(v1, v0 + 0.1);   // but still near ground
}

TEST(LoadingFixtureTest, OutputLoadingDroopsHighOutput) {
  LoadingFixture fx(gates::GateKind::kInv, {false},
                    device::defaultTechnology());
  const double v0 = fx.solve().output_voltage;
  fx.setOutputLoading(-nA(3000.0));  // fanout pins at '1' draw current
  const double v1 = fx.solve().output_voltage;
  EXPECT_LT(v1, v0 - 1e-3);
}

TEST(LoadingFixtureTest, PinLoadingIndexChecked) {
  LoadingFixture fx(gates::GateKind::kInv, {false},
                    device::defaultTechnology());
  EXPECT_THROW(fx.setPinLoading(1, 0.0), Error);
  EXPECT_THROW(fx.setPinLoading(-1, 0.0), Error);
  EXPECT_NO_THROW(fx.setPinLoading(0, nA(100.0)));
}

TEST(LoadingFixtureTest, LeakageExcludesDrivers) {
  // The fixture's reported leakage is the gate under test only: an INV
  // fixture must report far less than the whole netlist leaks.
  LoadingFixture fx(gates::GateKind::kInv, {false},
                    device::defaultTechnology());
  const FixtureResult r = fx.solve();
  // Compare with an isolated inverter: same order of magnitude.
  EXPECT_GT(toNanoAmps(r.leakage.total()), 200.0);
  EXPECT_LT(toNanoAmps(r.leakage.total()), 3000.0);
}

// The DeviceCoeffs re-bind-at-T contract, fixture level: re-binding a
// fixture to a new temperature and solving cold is bit-identical to a
// fixture freshly constructed at that temperature.
TEST(LoadingFixtureTest, TemperatureRebindMatchesFreshBuild) {
  const device::Technology tech = device::defaultTechnology();
  for (double temperature_k : {253.0, 363.0, 398.0}) {
    LoadingFixture rebound(gates::GateKind::kNand2, {true, false}, tech);
    // Solve once at the construction temperature so the kernel exists and
    // carries 300 K coefficients before the re-bind.
    rebound.setInputLoading(1.0e-6);
    rebound.setOutputLoading(-0.5e-6);
    (void)rebound.solveCompiled();
    rebound.rebindTemperature(temperature_k);

    device::Technology tech_t = tech;
    tech_t.temperature_k = temperature_k;
    LoadingFixture fresh(gates::GateKind::kNand2, {true, false}, tech_t);
    fresh.setInputLoading(1.0e-6);
    fresh.setOutputLoading(-0.5e-6);

    const FixtureResult a = rebound.solveCompiled();
    const FixtureResult b = fresh.solveCompiled();
    EXPECT_EQ(a.leakage.subthreshold, b.leakage.subthreshold);
    EXPECT_EQ(a.leakage.gate, b.leakage.gate);
    EXPECT_EQ(a.leakage.btbt, b.leakage.btbt);
    EXPECT_EQ(a.voltages, b.voltages);
    EXPECT_EQ(a.pin_currents_into_net, b.pin_currents_into_net);
  }
}

// A batched lane that cannot converge names its loading-grid point and
// the worst node: 1 mA on every source of a NAND2 fixture pushes the
// driven pins past anything the drivers can hold.
TEST(LoadingFixtureTest, BatchedFailureNamesGridPoint) {
  LoadingFixture fx(gates::GateKind::kNand2, {false, true},
                    device::defaultTechnology());
  FixtureBatchPoint point;
  point.pin_loading = {1e-3, 1e-3};
  point.output_loading = 1e-3;
  point.grid_row = 2;
  point.grid_col = 3;
  try {
    (void)fx.solveBatched(std::span<const FixtureBatchPoint>(&point, 1));
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_STREQ(e.what(),
                 "LoadingFixture: DC solve did not converge (NAND2, grid "
                 "point (2,3), node pin1, |residual| = 0.000915 A)");
  }
}

TEST(LoadingFixtureTest, SolveIsRepeatable) {
  LoadingFixture fx(gates::GateKind::kNand2, {true, false},
                    device::defaultTechnology());
  fx.setInputLoading(nA(500.0));
  fx.setOutputLoading(nA(250.0));
  const FixtureResult a = fx.solve();
  const FixtureResult b = fx.solve();
  EXPECT_DOUBLE_EQ(a.leakage.total(), b.leakage.total());
  EXPECT_DOUBLE_EQ(a.output_voltage, b.output_voltage);
}

}  // namespace
}  // namespace nanoleak::core
