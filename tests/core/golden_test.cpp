#include "core/golden.h"

#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "util/rng.h"

namespace nanoleak::core {
namespace {

TEST(GoldenTest, ChainTotalsArePerGateSums) {
  const logic::LogicNetlist nl = logic::inverterChain(6);
  const GoldenResult r =
      goldenLeakage(nl, device::defaultTechnology(), {true});
  ASSERT_EQ(r.per_gate.size(), 6u);
  device::LeakageBreakdown sum;
  for (const auto& g : r.per_gate) {
    sum += g;
  }
  EXPECT_NEAR(sum.total(), r.total.total(), 1e-15);
  EXPECT_GT(r.total.total(), 0.0);
}

TEST(GoldenTest, SolverFirstSolveBitIdenticalToGoldenLeakage) {
  const logic::LogicNetlist nl = logic::rippleCarryAdder(4);
  const device::Technology tech = device::defaultTechnology();
  Rng rng(5);
  const logic::LogicSimulator sim(nl);
  const auto vec = logic::randomPattern(sim.sourceCount(), rng);

  GoldenSolver solver(nl, tech);
  const GoldenResult fresh = goldenLeakage(nl, tech, vec);
  const GoldenResult compiled = solver.solve(vec);
  EXPECT_EQ(fresh.total.subthreshold, compiled.total.subthreshold);
  EXPECT_EQ(fresh.total.gate, compiled.total.gate);
  EXPECT_EQ(fresh.total.btbt, compiled.total.btbt);
  EXPECT_EQ(fresh.sweeps, compiled.sweeps);
  EXPECT_EQ(fresh.node_solves, compiled.node_solves);
}

TEST(GoldenTest, SolverWarmResolveMatchesFreshSolves) {
  const logic::LogicNetlist nl = logic::c17();
  const device::Technology tech = device::defaultTechnology();
  Rng rng(17);
  const logic::LogicSimulator sim(nl);

  GoldenSolver solver(nl, tech);
  for (int rep = 0; rep < 6; ++rep) {
    const auto vec = logic::randomPattern(sim.sourceCount(), rng);
    const GoldenResult warm = solver.solve(vec);
    const GoldenResult fresh = goldenLeakage(nl, tech, vec);
    EXPECT_NEAR(warm.total.total(), fresh.total.total(),
                1e-6 * fresh.total.total())
        << "rep " << rep;
    ASSERT_EQ(warm.per_gate.size(), fresh.per_gate.size());
    for (std::size_t g = 0; g < fresh.per_gate.size(); ++g) {
      EXPECT_NEAR(warm.per_gate[g].total(), fresh.per_gate[g].total(),
                  1e-6 * fresh.per_gate[g].total() + 1e-18);
    }
  }
}

TEST(GoldenTest, IsolatedSumIsVectorDependent) {
  const logic::LogicNetlist nl = logic::c17();
  const device::Technology tech = device::defaultTechnology();
  const double all0 =
      isolatedSumLeakage(nl, tech, {false, false, false, false, false})
          .total();
  const double all1 =
      isolatedSumLeakage(nl, tech, {true, true, true, true, true}).total();
  EXPECT_NE(all0, all1);
  EXPECT_GT(all0, 0.0);
}

TEST(GoldenTest, LoadingRaisesCircuitLeakageVsIsolated) {
  // The paper's central circuit-level observation (Fig. 12b): the full
  // solve exceeds the traditional isolated accumulation by a few percent.
  const logic::LogicNetlist nl = logic::arrayMultiplier(5);
  const device::Technology tech = device::defaultTechnology();
  Rng rng(21);
  const logic::LogicSimulator sim(nl);
  const auto vec = logic::randomPattern(sim.sourceCount(), rng);
  const GoldenResult golden = goldenLeakage(nl, tech, vec);
  const double isolated = isolatedSumLeakage(nl, tech, vec).total();
  const double delta_pct =
      100.0 * (golden.total.total() - isolated) / isolated;
  EXPECT_GT(delta_pct, 0.5);
  EXPECT_LT(delta_pct, 15.0);
}

TEST(GoldenTest, EstimatorTracksGoldenWithinTolerance) {
  // Fig. 12a: the estimator must match the full solve closely.
  const logic::LogicNetlist nl = logic::arrayMultiplier(5);
  const device::Technology tech = device::defaultTechnology();
  CharacterizationOptions options;
  options.kinds = generatorGateKinds();
  const LeakageLibrary lib = Characterizer(tech, options).characterize();
  const EstimationPlan plan(nl, lib);
  EstimationWorkspace ws(plan);
  Rng rng(22);
  for (int trial = 0; trial < 3; ++trial) {
    const auto vec = logic::randomPattern(plan.sourceCount(), rng);
    const GoldenResult golden = goldenLeakage(nl, tech, vec);
    const EstimateResult estimate = plan.estimate(vec, ws);
    const double err = std::abs(estimate.total.total() -
                                golden.total.total()) /
                       golden.total.total();
    EXPECT_LT(err, 0.04) << "trial " << trial;
  }
}

TEST(GoldenTest, VariationShiftsGoldenLeakage) {
  const logic::LogicNetlist nl = logic::inverterChain(4);
  const device::Technology tech = device::defaultTechnology();
  const gates::VariationProvider leaky = [] {
    device::DeviceVariation v;
    v.delta_vth = -0.05;
    return v;
  };
  const double nominal =
      goldenLeakage(nl, tech, {false}).total.total();
  const double shifted =
      goldenLeakage(nl, tech, {false}, leaky).total.total();
  EXPECT_GT(shifted, 1.5 * nominal);
}

}  // namespace
}  // namespace nanoleak::core
