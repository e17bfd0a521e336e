#include "core/characterizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/loading_fixture.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/units.h"

namespace nanoleak::core {
namespace {

CharacterizationOptions smallGrid(std::vector<gates::GateKind> kinds) {
  CharacterizationOptions options;
  options.kinds = std::move(kinds);
  options.loading_grid = {0.0, 1.0e-6, 3.0e-6};
  return options;
}

TEST(CharacterizerTest, RejectsBadGrid) {
  CharacterizationOptions options;
  options.loading_grid = {1e-6, 2e-6};  // missing 0
  EXPECT_THROW(Characterizer(device::defaultTechnology(), options), Error);
  options.loading_grid = {0.0, 2e-6, 1e-6};  // not increasing
  EXPECT_THROW(Characterizer(device::defaultTechnology(), options), Error);
}

TEST(CharacterizerTest, InverterTablesHaveBothVectors) {
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid({gates::GateKind::kInv}));
  const LeakageLibrary lib = chr.characterize();
  ASSERT_TRUE(lib.has(gates::GateKind::kInv));
  const auto& tables = lib.tables(gates::GateKind::kInv);
  ASSERT_EQ(tables.size(), 2u);
  for (const VectorTable& t : tables) {
    EXPECT_GT(t.nominal.total(), 0.0);
    EXPECT_GT(t.isolated_nominal.total(), 0.0);
    EXPECT_EQ(t.pin_current.size(), 1u);
    EXPECT_EQ(t.subthreshold.rows(), 3u);
    EXPECT_EQ(t.subthreshold.cols(), 3u);
    EXPECT_EQ(t.pin_current_grid.size(), 1u);
  }
}

TEST(CharacterizerTest, ZeroLoadingGridPointEqualsNominal) {
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid({gates::GateKind::kInv}));
  const auto tables = chr.characterizeKind(gates::GateKind::kInv);
  for (const VectorTable& t : tables) {
    EXPECT_DOUBLE_EQ(t.lookup(0.0, 0.0).total(), t.nominal.total());
  }
}

TEST(CharacterizerTest, SubthresholdGrowsAlongIlAxis) {
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid({gates::GateKind::kInv}));
  const auto tables = chr.characterizeKind(gates::GateKind::kInv);
  for (const VectorTable& t : tables) {
    // Row index = IL; subthreshold rises with input loading.
    EXPECT_GT(t.subthreshold.at(2, 0), t.subthreshold.at(0, 0));
    // Column index = OL; total falls with output loading.
    const double total_ol0 =
        t.subthreshold.at(0, 0) + t.gate.at(0, 0) + t.btbt.at(0, 0);
    const double total_ol2 =
        t.subthreshold.at(0, 2) + t.gate.at(0, 2) + t.btbt.at(0, 2);
    EXPECT_LT(total_ol2, total_ol0);
  }
}

TEST(CharacterizerTest, IsolatedNominalDiffersFromFixtureNominal) {
  // Real drivers droop under the gate's own currents, so the fixture
  // nominal must not equal the ideal-rail value.
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid({gates::GateKind::kInv}));
  const auto tables = chr.characterizeKind(gates::GateKind::kInv);
  for (const VectorTable& t : tables) {
    EXPECT_NE(t.nominal.total(), t.isolated_nominal.total());
    // ... but within ~25 % (they describe the same gate).
    EXPECT_NEAR(t.nominal.total(), t.isolated_nominal.total(),
                0.25 * t.isolated_nominal.total());
  }
}

TEST(CharacterizerTest, PinCurrentSignsFollowPinLevels) {
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid({gates::GateKind::kNand2}));
  const auto tables = chr.characterizeKind(gates::GateKind::kNand2);
  ASSERT_EQ(tables.size(), 4u);
  // Vector index bit k = pin k level. Pin at '0' injects (+), '1' draws (-).
  EXPECT_GT(tables[0].pin_current[0], 0.0);  // 00
  EXPECT_GT(tables[0].pin_current[1], 0.0);
  EXPECT_LT(tables[1].pin_current[0], 0.0);  // pin0=1
  EXPECT_GT(tables[1].pin_current[1], 0.0);
  EXPECT_LT(tables[3].pin_current[0], 0.0);  // 11
  EXPECT_LT(tables[3].pin_current[1], 0.0);
}

TEST(CharacterizerTest, FullLibraryCoversGeneratorKinds) {
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid(generatorGateKinds()));
  const LeakageLibrary lib = chr.characterize();
  for (gates::GateKind kind : generatorGateKinds()) {
    ASSERT_TRUE(lib.has(kind)) << gates::toString(kind);
    // Every vector carries one nominal pin current and one pin-current
    // surface per input pin.
    const auto pins = static_cast<std::size_t>(gates::inputCount(kind));
    for (const VectorTable& t : lib.tables(kind)) {
      EXPECT_EQ(t.pin_current.size(), pins) << gates::toString(kind);
      EXPECT_EQ(t.pin_current_grid.size(), pins) << gates::toString(kind);
    }
  }
  EXPECT_EQ(lib.meta().vdd, device::defaultTechnology().vdd);
}

std::vector<VectorTable> tablesFor(
    CharacterizationOptions::SolverPath path, gates::GateKind kind) {
  CharacterizationOptions options = smallGrid({kind});
  options.solver_path = path;
  return Characterizer(device::defaultTechnology(), options)
      .characterizeKind(kind);
}

double maxRelDiff(const Grid2D& a, const Grid2D& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double denom = std::max(std::abs(a.at(i, j)), 1e-30);
      worst = std::max(worst, std::abs(a.at(i, j) - b.at(i, j)) / denom);
    }
  }
  return worst;
}

TEST(CharacterizerTest, CompiledPathBitIdenticalToLegacy) {
  using SolverPath = CharacterizationOptions::SolverPath;
  for (gates::GateKind kind :
       {gates::GateKind::kInv, gates::GateKind::kNand2}) {
    const auto legacy = tablesFor(SolverPath::kLegacy, kind);
    const auto compiled = tablesFor(SolverPath::kCompiled, kind);
    ASSERT_EQ(legacy.size(), compiled.size());
    for (std::size_t v = 0; v < legacy.size(); ++v) {
      EXPECT_EQ(legacy[v].subthreshold.values(),
                compiled[v].subthreshold.values());
      EXPECT_EQ(legacy[v].gate.values(), compiled[v].gate.values());
      EXPECT_EQ(legacy[v].btbt.values(), compiled[v].btbt.values());
      EXPECT_EQ(legacy[v].nominal.total(), compiled[v].nominal.total());
      for (std::size_t pin = 0; pin < legacy[v].pin_current_grid.size();
           ++pin) {
        EXPECT_EQ(legacy[v].pin_current_grid[pin].values(),
                  compiled[v].pin_current_grid[pin].values());
      }
    }
  }
}

TEST(CharacterizerTest, WarmStartPathAgreesWithLegacyWithinTolerance) {
  using SolverPath = CharacterizationOptions::SolverPath;
  const auto legacy = tablesFor(SolverPath::kLegacy, gates::GateKind::kNand2);
  const auto warm =
      tablesFor(SolverPath::kCompiledWarmStart, gates::GateKind::kNand2);
  ASSERT_EQ(legacy.size(), warm.size());
  for (std::size_t v = 0; v < legacy.size(); ++v) {
    EXPECT_LT(maxRelDiff(legacy[v].subthreshold, warm[v].subthreshold), 1e-6);
    EXPECT_LT(maxRelDiff(legacy[v].gate, warm[v].gate), 1e-6);
    EXPECT_LT(maxRelDiff(legacy[v].btbt, warm[v].btbt), 1e-6);
  }
}

// The SIMD lane-parallel path (the default) agrees with the scan-order
// warm-start reference on every cell of every table. The 5-column grid
// exercises both a full lane group and a partial trailing one on 4-lane
// backends; on the scalar backend every lane takes the bit-exact path.
TEST(CharacterizerTest, BatchedPathMatchesWarmStartWithinTolerance) {
  using SolverPath = CharacterizationOptions::SolverPath;
  CharacterizationOptions options;
  options.kinds = {gates::GateKind::kNand2};
  options.loading_grid = {0.0, 0.5e-6, 1.0e-6, 2.0e-6, 3.0e-6};
  EXPECT_EQ(options.solver_path, SolverPath::kBatched);  // the default
  const auto batched = Characterizer(device::defaultTechnology(), options)
                           .characterizeKind(gates::GateKind::kNand2);
  options.solver_path = SolverPath::kCompiledWarmStart;
  const auto warm = Characterizer(device::defaultTechnology(), options)
                        .characterizeKind(gates::GateKind::kNand2);
  ASSERT_EQ(batched.size(), warm.size());
  for (std::size_t v = 0; v < warm.size(); ++v) {
    EXPECT_LT(maxRelDiff(warm[v].subthreshold, batched[v].subthreshold),
              1e-6);
    EXPECT_LT(maxRelDiff(warm[v].gate, batched[v].gate), 1e-6);
    EXPECT_LT(maxRelDiff(warm[v].btbt, batched[v].btbt), 1e-6);
    ASSERT_EQ(batched[v].pin_current_grid.size(),
              warm[v].pin_current_grid.size());
    for (std::size_t pin = 0; pin < warm[v].pin_current_grid.size(); ++pin) {
      EXPECT_LT(maxRelDiff(warm[v].pin_current_grid[pin],
                           batched[v].pin_current_grid[pin]),
                1e-6);
    }
    EXPECT_NEAR(batched[v].nominal.total(), warm[v].nominal.total(),
                1e-6 * warm[v].nominal.total());
    // The isolated reference never goes through a solver.
    EXPECT_EQ(batched[v].isolated_nominal.total(),
              warm[v].isolated_nominal.total());
  }
}

// --- temperature axis -------------------------------------------------

using SolverPath = CharacterizationOptions::SolverPath;

const std::vector<double>& axisTemperatures() {
  static const std::vector<double> temps = {253.0, 300.0, 363.0};
  return temps;
}

CharacterizationOptions pathGrid(SolverPath path) {
  CharacterizationOptions options = smallGrid({});
  options.solver_path = path;
  return options;
}

device::Technology atTemperature(device::Technology tech,
                                 double temperature_k) {
  tech.temperature_k = temperature_k;
  return tech;
}

void expectBitIdentical(const VectorTable& a, const VectorTable& b) {
  EXPECT_EQ(a.subthreshold.values(), b.subthreshold.values());
  EXPECT_EQ(a.gate.values(), b.gate.values());
  EXPECT_EQ(a.btbt.values(), b.btbt.values());
  EXPECT_EQ(a.pin_current, b.pin_current);
  EXPECT_EQ(a.nominal.subthreshold, b.nominal.subthreshold);
  EXPECT_EQ(a.nominal.gate, b.nominal.gate);
  EXPECT_EQ(a.nominal.btbt, b.nominal.btbt);
  EXPECT_EQ(a.isolated_nominal.subthreshold, b.isolated_nominal.subthreshold);
  EXPECT_EQ(a.isolated_nominal.gate, b.isolated_nominal.gate);
  EXPECT_EQ(a.isolated_nominal.btbt, b.isolated_nominal.btbt);
  ASSERT_EQ(a.pin_current_grid.size(), b.pin_current_grid.size());
  for (std::size_t pin = 0; pin < a.pin_current_grid.size(); ++pin) {
    EXPECT_EQ(a.pin_current_grid[pin].values(),
              b.pin_current_grid[pin].values());
  }
}

double maxTableRelDiff(const VectorTable& a, const VectorTable& b) {
  return std::max({maxRelDiff(a.subthreshold, b.subthreshold),
                   maxRelDiff(a.gate, b.gate), maxRelDiff(a.btbt, b.btbt)});
}

// A one-temperature list is the plain scan: bit-identical on every path.
TEST(CharacterizerTemperatureTest, SingleTemperatureEqualsPlainScan) {
  const device::Technology tech =
      atTemperature(device::defaultTechnology(), 338.0);
  for (SolverPath path : {SolverPath::kLegacy, SolverPath::kCompiled,
                          SolverPath::kCompiledWarmStart,
                          SolverPath::kBatched}) {
    const Characterizer chr(tech, pathGrid(path));
    const auto plain = chr.characterizeKind(gates::GateKind::kNand2);
    const auto axis =
        chr.characterizeKind(gates::GateKind::kNand2, {tech.temperature_k});
    ASSERT_EQ(axis.size(), 1u);
    ASSERT_EQ(axis[0].size(), plain.size());
    for (std::size_t v = 0; v < plain.size(); ++v) {
      expectBitIdentical(axis[0][v], plain[v]);
    }
  }
}

// Re-binding temperature alone never changes a bit: on every path without
// cross-temperature seeds, each temperature of the axis equals a
// Characterizer built at that temperature. The technology's own
// temperature plays no part.
TEST(CharacterizerTemperatureTest, ReboundAxisBitIdenticalToFreshBuild) {
  const device::Technology base = device::defaultTechnology();
  for (SolverPath path :
       {SolverPath::kLegacy, SolverPath::kCompiled, SolverPath::kBatched}) {
    const Characterizer axis(atTemperature(base, 411.0), pathGrid(path));
    for (gates::GateKind kind :
         {gates::GateKind::kInv, gates::GateKind::kNor2}) {
      const auto per_t = axis.characterizeKind(kind, axisTemperatures());
      ASSERT_EQ(per_t.size(), axisTemperatures().size());
      for (std::size_t t = 0; t < per_t.size(); ++t) {
        const auto fresh =
            Characterizer(atTemperature(base, axisTemperatures()[t]),
                          pathGrid(path))
                .characterizeKind(kind);
        ASSERT_EQ(per_t[t].size(), fresh.size());
        for (std::size_t v = 0; v < fresh.size(); ++v) {
          expectBitIdentical(per_t[t][v], fresh[v]);
        }
      }
    }
  }
}

// The warm path's continuation seeds (in-scan and across temperatures)
// move no table beyond solver tolerance, in every flavour.
TEST(CharacterizerTemperatureTest, WarmAxisWithinSolverToleranceOfCold) {
  for (const device::Technology& base :
       {device::defaultTechnology(), device::gateDominatedTechnology(),
        device::btbtDominatedTechnology()}) {
    const auto cold = Characterizer(base, pathGrid(SolverPath::kCompiled))
                          .characterizeKind(gates::GateKind::kNand2,
                                            axisTemperatures());
    const auto warm =
        Characterizer(base, pathGrid(SolverPath::kCompiledWarmStart))
            .characterizeKind(gates::GateKind::kNand2, axisTemperatures());
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t t = 0; t < cold.size(); ++t) {
      for (std::size_t v = 0; v < cold[t].size(); ++v) {
        EXPECT_LT(maxTableRelDiff(cold[t][v], warm[t][v]), 1e-6)
            << "flavour " << base.nmos.name << " T "
            << axisTemperatures()[t];
      }
    }
  }
}

// The lane-parallel path over a temperature list agrees with the cold
// reference at every temperature; its isolated reference is solver-free,
// hence exact.
TEST(CharacterizerTemperatureTest, BatchedAxisWithinSolverToleranceOfCold) {
  const device::Technology base = device::defaultTechnology();
  const std::vector<double> temps = {233.0, 263.0, 293.0,
                                     323.0, 353.0, 398.0};
  for (gates::GateKind kind :
       {gates::GateKind::kInv, gates::GateKind::kNand2}) {
    const auto cold = Characterizer(base, pathGrid(SolverPath::kCompiled))
                          .characterizeKind(kind, temps);
    const auto batched = Characterizer(base, pathGrid(SolverPath::kBatched))
                             .characterizeKind(kind, temps);
    ASSERT_EQ(batched.size(), cold.size());
    for (std::size_t t = 0; t < cold.size(); ++t) {
      ASSERT_EQ(batched[t].size(), cold[t].size());
      for (std::size_t v = 0; v < cold[t].size(); ++v) {
        EXPECT_LT(maxTableRelDiff(cold[t][v], batched[t][v]), 1e-6)
            << "T " << temps[t] << " vec " << v;
        EXPECT_EQ(batched[t][v].isolated_nominal.total(),
                  cold[t][v].isolated_nominal.total());
      }
    }
  }
}

// On the warm path only the first grid point of each vector at the first
// temperature starts cold - so the cross-temperature bridge demonstrably
// seeds every later row start - and each fixture is re-bound once per
// later temperature.
TEST(CharacterizerTemperatureTest, WarmAxisStartsColdOncePerVector) {
  const Characterizer chr(device::defaultTechnology(),
                          pathGrid(SolverPath::kCompiledWarmStart));
  const std::size_t vectors = 4;  // NAND2
  for (const std::vector<double>& temps :
       {std::vector<double>{300.0}, axisTemperatures(),
        std::vector<double>{233.0, 250.0, 290.0, 330.0, 370.0, 398.0}}) {
    const obs::Snapshot before = obs::snapshot();
    (void)chr.characterizeKind(gates::GateKind::kNand2, temps);
    const obs::Snapshot delta = obs::snapshot().deltaSince(before);
    EXPECT_EQ(delta.counterValue("char.grid_points") -
                  delta.counterValue("char.warm_grid_points"),
              vectors);
    EXPECT_EQ(delta.counterValue("char.grid_points"),
              vectors * temps.size() * 3 * 3);
    EXPECT_EQ(delta.counterValue("thermal.fixture_rebinds"),
              vectors * (temps.size() - 1));
  }
}

TEST(CharacterizerTemperatureTest, RejectsMalformedTemperatureLists) {
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid({gates::GateKind::kInv}));
  EXPECT_THROW(chr.characterizeKind(gates::GateKind::kInv, {}), Error);
  EXPECT_THROW(chr.characterizeKind(gates::GateKind::kInv, {300.0, 300.0}),
               Error);
  EXPECT_THROW(chr.characterizeKind(gates::GateKind::kInv, {350.0, 300.0}),
               Error);
}

TEST(CharacterizerTest, PinCurrentMagnitudesAreHundredsOfNanoamps) {
  // The paper's 0-3000 nA loading sweeps presume pin currents of this
  // order (a few fanouts reach the microamp range).
  const Characterizer chr(device::defaultTechnology(),
                          smallGrid({gates::GateKind::kInv}));
  const auto tables = chr.characterizeKind(gates::GateKind::kInv);
  for (const VectorTable& t : tables) {
    EXPECT_GT(std::abs(toNanoAmps(t.pin_current[0])), 100.0);
    EXPECT_LT(std::abs(toNanoAmps(t.pin_current[0])), 2000.0);
  }
}

}  // namespace
}  // namespace nanoleak::core
