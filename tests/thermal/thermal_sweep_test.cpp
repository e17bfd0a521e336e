#include "thermal/thermal_sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/solver_stats.h"
#include "core/estimation_plan.h"
#include "obs/metrics.h"
#include "scenario/cli.h"
#include "scenario/golden_file.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/error.h"

namespace nanoleak::thermal {
namespace {

core::CharacterizationOptions quickOptions() {
  core::CharacterizationOptions options;
  options.loading_grid = {0.0, 1.0e-6, 3.0e-6};
  return options;
}

/// The default (warm-path) sweep on the quick loading grid.
ThermalSweepOptions quickSweepOptions() {
  ThermalSweepOptions options;
  options.grid = {253.0, 373.0, 4};
  options.characterization.loading_grid = quickOptions().loading_grid;
  return options;
}

TEST(ThermalGridTest, UniformInclusiveGrid) {
  const ThermalGrid grid{233.0, 398.0, 4};
  const std::vector<double> temps = grid.temperatures();
  ASSERT_EQ(temps.size(), 4u);
  EXPECT_DOUBLE_EQ(temps.front(), 233.0);
  EXPECT_DOUBLE_EQ(temps.back(), 398.0);
  EXPECT_DOUBLE_EQ(temps[1], 233.0 + 165.0 / 3.0);
  for (std::size_t i = 1; i < temps.size(); ++i) {
    EXPECT_GT(temps[i], temps[i - 1]);
  }
}

TEST(ThermalGridTest, SinglePointAndValidation) {
  EXPECT_EQ(ThermalGrid({300.0, 300.0, 1}).temperatures(),
            std::vector<double>{300.0});
  EXPECT_THROW(ThermalGrid({300.0, 300.0, 2}).temperatures(), Error);
  EXPECT_THROW(ThermalGrid({300.0, 250.0, 3}).temperatures(), Error);
  EXPECT_THROW(ThermalGrid({300.0, 350.0, 0}).temperatures(), Error);
}

TEST(ThermalSweepEngineTest, DefaultsToTheWarmPath) {
  EXPECT_EQ(ThermalSweepOptions{}.characterization.solver_path,
            core::CharacterizationOptions::SolverPath::kCompiledWarmStart);
}

TEST(ThermalSweepEngineTest, CharacterizeBuildsPerTemperatureLibraries) {
  ThermalSweepOptions options = quickSweepOptions();
  options.grid = {250.0, 350.0, 3};
  const ThermalSweepEngine engine(device::defaultTechnology(), options);
  const ThermalLibrarySet set =
      engine.characterize({gates::GateKind::kInv, gates::GateKind::kNand2});
  ASSERT_EQ(set.temperatures.size(), 3u);
  ASSERT_EQ(set.libraries.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_DOUBLE_EQ(set.libraries[t].meta().temperature_k,
                     set.temperatures[t]);
    EXPECT_TRUE(set.libraries[t].has(gates::GateKind::kInv));
    EXPECT_TRUE(set.libraries[t].has(gates::GateKind::kNand2));
  }
  // Leakage must grow with temperature for the subthreshold-dominated
  // flavour (nominal INV table, either vector).
  const double cold_total =
      set.libraries.front().table(gates::GateKind::kInv, 0).nominal.total();
  const double hot_total =
      set.libraries.back().table(gates::GateKind::kInv, 0).nominal.total();
  EXPECT_GT(hot_total, cold_total);
}

TEST(ThermalSweepEngineTest, RejectsMalformedGrids) {
  ThermalSweepOptions bad_loading = quickSweepOptions();
  bad_loading.characterization.loading_grid = {1.0e-6, 2.0e-6};
  EXPECT_THROW(ThermalSweepEngine(device::defaultTechnology(), bad_loading),
               Error);
  ThermalSweepOptions bad_grid = quickSweepOptions();
  bad_grid.grid = {300.0, 250.0, 3};
  EXPECT_THROW(ThermalSweepEngine(device::defaultTechnology(), bad_grid),
               Error);
}

std::vector<std::vector<bool>> patternsFor(
    const logic::LogicNetlist& netlist, std::size_t count) {
  return scenario::expandVectors(
      scenario::VectorPolicy::random(count, 20050307),
      netlist.sourceNets().size());
}

TEST(ThermalSweepEngineTest, CurveIsMonotonicForSubthresholdFlavour) {
  const ThermalSweepEngine engine(device::defaultTechnology(),
                                  quickSweepOptions());
  engine::BatchRunner runner;
  const logic::LogicNetlist netlist = scenario::buildCircuit("c17");
  const ThermalCurve curve =
      engine.run(netlist, patternsFor(netlist, 6), runner);

  ASSERT_EQ(curve.points.size(), 4u);
  EXPECT_EQ(curve.gates, netlist.gateCount());
  EXPECT_EQ(curve.vectors, 6u);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GT(curve.points[i].mean.total(),
              curve.points[i - 1].mean.total());
    EXPECT_GT(curve.points[i].mean.subthreshold,
              curve.points[i - 1].mean.subthreshold);
  }
  for (const ThermalPoint& point : curve.points) {
    EXPECT_LE(point.total_min, point.total_max);
    EXPECT_GT(point.mean.total(), 0.0);
  }
  // Subthreshold is strongly super-linear over 120 K: the exponential
  // model must beat the straight line decisively.
  EXPECT_GT(curve.subthreshold.linear.error.max_rel,
            2.0 * curve.subthreshold.exponential.error.max_rel);
}

void expectSameCurve(const ThermalCurve& a, const ThermalCurve& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].mean.subthreshold, b.points[i].mean.subthreshold);
    EXPECT_EQ(a.points[i].mean.gate, b.points[i].mean.gate);
    EXPECT_EQ(a.points[i].mean.btbt, b.points[i].mean.btbt);
  }
}

TEST(ThermalSweepEngineTest, CachesOneAxisEntryPerKind) {
  const ThermalSweepEngine engine(device::defaultTechnology(),
                                  quickSweepOptions());
  engine::BatchRunner runner;
  const logic::LogicNetlist netlist = scenario::buildCircuit("c17");
  const std::vector<gates::GateKind> kinds = core::estimationKinds(netlist);
  const ThermalCurve first =
      engine.run(netlist, patternsFor(netlist, 4), runner);

  // One entry per kind holds the whole grid.
  EXPECT_EQ(runner.cache().stats().misses, kinds.size());
  EXPECT_EQ(runner.cache().size(), kinds.size());

  // Running the same sweep again reuses those entries bit-for-bit
  // instead of re-characterizing.
  const circuit::SolveStats before = circuit::solveStats();
  const ThermalCurve second =
      engine.run(netlist, patternsFor(netlist, 4), runner);
  EXPECT_EQ(circuit::solveStats().node_solves, before.node_solves);
  EXPECT_EQ(runner.cache().stats().hits, kinds.size());
  expectSameCurve(first, second);

  // A plain lookup at a grid temperature, under the sweep's own options,
  // is a different entry: warm-path tables depend on the whole grid.
  device::Technology at_grid_point = device::defaultTechnology();
  at_grid_point.temperature_k = 253.0;
  (void)runner.cache().library(at_grid_point, kinds,
                               engine.options().characterization);
  EXPECT_EQ(runner.cache().stats().misses, 2 * kinds.size());
}

TEST(ThermalSweepEngineTest, ConcurrentIdenticalSweepsCharacterizeOnce) {
  // Two runners on one shared cache - the daemon's layout - running the
  // same sweep at once share one characterization per kind.
  const ThermalSweepEngine engine(device::defaultTechnology(),
                                  quickSweepOptions());
  const logic::LogicNetlist netlist = scenario::buildCircuit("c17");
  const std::vector<std::vector<bool>> patterns = patternsFor(netlist, 4);
  const std::size_t kind_count = core::estimationKinds(netlist).size();
  auto shared = std::make_shared<engine::TableCache>();
  engine::BatchRunner runner_a(engine::BatchOptions{.threads = 1,
                                                    .cache = shared});
  engine::BatchRunner runner_b(engine::BatchOptions{.threads = 1,
                                                    .cache = shared});

  const std::uint64_t before = obs::counterValue("char.kinds_characterized");
  ThermalCurve a;
  ThermalCurve b;
  std::thread thread_a([&] { a = engine.run(netlist, patterns, runner_a); });
  std::thread thread_b([&] { b = engine.run(netlist, patterns, runner_b); });
  thread_a.join();
  thread_b.join();

  EXPECT_EQ(obs::counterValue("char.kinds_characterized") - before,
            kind_count);
  EXPECT_EQ(shared->stats().misses, kind_count);
  EXPECT_EQ(shared->stats().hits, kind_count);
  expectSameCurve(a, b);
}

TEST(ThermalSweepEngineTest, DifferentGridsNeverAliasCachedEntries) {
  // Warm-start tables depend on the WHOLE grid (each temperature
  // continuation-seeds from its predecessor), so two sweeps sharing one
  // temperature but differing elsewhere must never serve each other's
  // cached entries - otherwise a sweep's results would depend on which
  // sweep ran first on the shared runner.
  const logic::LogicNetlist netlist = scenario::buildCircuit("c17");
  const std::vector<std::vector<bool>> patterns = patternsFor(netlist, 4);
  ThermalSweepOptions a = quickSweepOptions();
  a.grid = {300.0, 400.0, 2};
  ThermalSweepOptions b = quickSweepOptions();
  b.grid = {200.0, 400.0, 2};  // shares 400 K with grid a
  const ThermalSweepEngine engine_a(device::defaultTechnology(), a);
  const ThermalSweepEngine engine_b(device::defaultTechnology(), b);

  engine::BatchRunner shared;
  (void)engine_a.run(netlist, patterns, shared);
  const ThermalCurve poisoned_first = engine_b.run(netlist, patterns, shared);
  const ThermalCurve poisoned_second =
      engine_b.run(netlist, patterns, shared);

  engine::BatchRunner fresh;
  const ThermalCurve clean = engine_b.run(netlist, patterns, fresh);

  ASSERT_EQ(poisoned_first.points.size(), clean.points.size());
  for (std::size_t i = 0; i < clean.points.size(); ++i) {
    EXPECT_EQ(poisoned_first.points[i].mean.total(),
              clean.points[i].mean.total());
    EXPECT_EQ(poisoned_second.points[i].mean.total(),
              clean.points[i].mean.total());
  }
}

TEST(ThermalSweepEngineTest, BitIdenticalAcrossThreadCounts) {
  const logic::LogicNetlist netlist = scenario::buildCircuit("rca4");
  const std::vector<std::vector<bool>> patterns = patternsFor(netlist, 6);
  const ThermalSweepEngine engine(device::defaultTechnology(),
                                  quickSweepOptions());

  engine::BatchRunner one(engine::BatchOptions{.threads = 1});
  engine::BatchRunner four(engine::BatchOptions{.threads = 4});
  const ThermalCurve a = engine.run(netlist, patterns, one);
  const ThermalCurve b = engine.run(netlist, patterns, four);

  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].mean.subthreshold, b.points[i].mean.subthreshold);
    EXPECT_EQ(a.points[i].mean.gate, b.points[i].mean.gate);
    EXPECT_EQ(a.points[i].mean.btbt, b.points[i].mean.btbt);
    EXPECT_EQ(a.points[i].total_min, b.points[i].total_min);
    EXPECT_EQ(a.points[i].total_max, b.points[i].total_max);
  }
  EXPECT_EQ(a.total.linear.slope, b.total.linear.slope);
  EXPECT_EQ(a.total.exponential.rate, b.total.exponential.rate);
  EXPECT_EQ(a.total.piecewise.break_t, b.total.piecewise.break_t);
}

TEST(ThermalSweepEngineTest, NoLoadingCurveDiffersFromLoaded) {
  const logic::LogicNetlist netlist = scenario::buildCircuit("c17");
  const std::vector<std::vector<bool>> patterns = patternsFor(netlist, 4);

  ThermalSweepOptions loaded = quickSweepOptions();
  ThermalSweepOptions unloaded = quickSweepOptions();
  unloaded.with_loading = false;
  engine::BatchRunner runner;
  const ThermalCurve a = ThermalSweepEngine(device::defaultTechnology(),
                                            loaded)
                             .run(netlist, patterns, runner);
  const ThermalCurve b = ThermalSweepEngine(device::defaultTechnology(),
                                            unloaded)
                             .run(netlist, patterns, runner);
  // The loading correction must actually change the curve.
  EXPECT_NE(a.points.front().mean.total(), b.points.front().mean.total());
}

TEST(ThermalSweepEngineTest, RejectsEmptyPatterns) {
  const ThermalSweepEngine engine(device::defaultTechnology(),
                                  quickSweepOptions());
  engine::BatchRunner runner;
  const logic::LogicNetlist netlist = scenario::buildCircuit("c17");
  EXPECT_THROW(engine.run(netlist, {}, runner), Error);
}

// --- scenario-layer integration -------------------------------------------

TEST(ThermalScenarioTest, RegistryHasThermalSuite) {
  const scenario::Registry registry = scenario::builtinRegistry();
  ASSERT_TRUE(registry.hasSuite("thermal"));
  for (const std::string& name : registry.suite("thermal")) {
    const scenario::Scenario& sc = registry.get(name);
    EXPECT_EQ(sc.method, scenario::Method::kThermalSweep);
    EXPECT_GE(sc.thermal.points, 2u);
    EXPECT_GT(sc.thermal.t_max_k, sc.thermal.t_min_k);
  }
}

TEST(ThermalScenarioTest, SuiteSerializationIsThreadCountInvariant) {
  const scenario::Registry registry = scenario::builtinRegistry();
  // One representative scenario keeps this fast; the committed golden
  // file pins the full suite.
  const std::string name = registry.suite("thermal").front();
  const scenario::SuiteResult one =
      scenario::runSuite(registry, name, {.threads = 1});
  const scenario::SuiteResult four =
      scenario::runSuite(registry, name, {.threads = 4});
  EXPECT_EQ(scenario::serializeSuite(one), scenario::serializeSuite(four));
}

TEST(ThermalScenarioTest, MethodRoundTripsThroughStrings) {
  EXPECT_STREQ(scenario::toString(scenario::Method::kThermalSweep),
               "thermal");
  EXPECT_EQ(scenario::methodFromString("thermal"),
            scenario::Method::kThermalSweep);
}

// --- CLI ------------------------------------------------------------------

int runCli(const std::vector<std::string>& args, std::string* out_text,
           std::string* err_text) {
  std::vector<const char*> argv;
  argv.push_back("nanoleak");
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  const int code = scenario::cliMain(static_cast<int>(argv.size()),
                                     argv.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(ThermalCliTest, ThermalCommandPrintsCurveAndFits) {
  std::string out;
  std::string err;
  const int code = runCli({"thermal", "c17", "--points", "4", "--vectors",
                           "4", "--tmin", "260", "--tmax", "360"},
                          &out, &err);
  EXPECT_EQ(code, scenario::kExitOk) << err;
  EXPECT_NE(out.find("thermal sweep: c17 x d25s"), std::string::npos);
  EXPECT_NE(out.find("T [K]"), std::string::npos);
  EXPECT_NE(out.find("exponential"), std::string::npos);
  EXPECT_NE(out.find("best model per component"), std::string::npos);
}

TEST(ThermalCliTest, UsageErrors) {
  std::string err;
  EXPECT_EQ(runCli({"thermal"}, nullptr, &err), scenario::kExitUsage);
  EXPECT_EQ(runCli({"thermal", "c17", "--tmin", "400", "--tmax", "300"},
                   nullptr, &err),
            scenario::kExitUsage);
  // 0 K is not a physically evaluable corner (thermalVoltage(0) == 0).
  EXPECT_EQ(runCli({"thermal", "c17", "--tmin", "0", "--tmax", "300"},
                   nullptr, &err),
            scenario::kExitUsage);
  EXPECT_EQ(runCli({"thermal", "c17", "--golden", "x.json"}, nullptr, &err),
            scenario::kExitUsage);
  EXPECT_EQ(runCli({"thermal", "c17", "--format", "json"}, nullptr, &err),
            scenario::kExitUsage);
  // Unknown circuits map to a runtime failure, not a usage error.
  EXPECT_EQ(runCli({"thermal", "no_such_circuit", "--points", "2"}, nullptr,
                   &err),
            scenario::kExitFailure);
}

TEST(ThermalCliTest, ListShowsThermalScenariosWithRange) {
  std::string out;
  ASSERT_EQ(runCli({"list"}, &out, nullptr), scenario::kExitOk);
  EXPECT_NE(out.find("thermal/c17/d25s/233-398K"), std::string::npos);
  EXPECT_NE(out.find("233-398"), std::string::npos);
}

}  // namespace
}  // namespace nanoleak::thermal
