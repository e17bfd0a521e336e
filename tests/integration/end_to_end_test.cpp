// End-to-end flows a downstream user would run: parse/generate a circuit,
// characterize a library, estimate, and validate against the full solve.
#include <gtest/gtest.h>

#include <chrono>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/golden.h"
#include "logic/bench_io.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "util/rng.h"

namespace nanoleak {
namespace {

using core::CharacterizationOptions;
using core::Characterizer;
using core::EstimateResult;
using core::EstimationPlan;
using core::EstimationWorkspace;
using core::GoldenResult;
using core::LeakageLibrary;

const LeakageLibrary& lib() {
  static const LeakageLibrary library = [] {
    CharacterizationOptions options;
    options.kinds = core::generatorGateKinds();
    return Characterizer(device::defaultTechnology(), options).characterize();
  }();
  return library;
}

TEST(EndToEndTest, BenchFileToLeakageReport) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NOR(b, c)
n3 = XOR(n1, n2)
y = NOT(n3)
)";
  const logic::LogicNetlist nl = logic::parseBenchString(text);
  const EstimationPlan plan(nl, lib());
  EstimationWorkspace ws(plan);
  const EstimateResult r = plan.estimate({false, true, false}, ws);
  EXPECT_EQ(r.per_gate.size(), 4u);
  EXPECT_GT(r.total.total(), 0.0);
  const GoldenResult golden =
      core::goldenLeakage(nl, device::defaultTechnology(),
                          {false, true, false});
  EXPECT_NEAR(r.total.total(), golden.total.total(),
              0.05 * golden.total.total());
}

class CircuitSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CircuitSweep, EstimatorTracksGoldenOnRandomVectors) {
  const std::string name = GetParam();
  logic::LogicNetlist nl = [&]() {
    if (name == "c17") return logic::c17();
    if (name == "adder8") return logic::rippleCarryAdder(8);
    if (name == "mult4") return logic::arrayMultiplier(4);
    if (name == "alu8") return logic::alu8();
    return logic::synthesizeIscasLike(logic::iscasSpec(name), 1234);
  }();
  const device::Technology tech = device::defaultTechnology();
  const EstimationPlan plan(nl, lib());
  EstimationWorkspace ws(plan);
  Rng rng(555);
  for (int trial = 0; trial < 2; ++trial) {
    const auto vec = logic::randomPattern(plan.sourceCount(), rng);
    const GoldenResult golden = core::goldenLeakage(nl, tech, vec);
    const EstimateResult estimate = plan.estimate(vec, ws);
    const double err =
        std::abs(estimate.total.total() - golden.total.total()) /
        golden.total.total();
    EXPECT_LT(err, 0.05) << name << " trial " << trial;
    // Component-wise agreement within 12 %.
    EXPECT_NEAR(estimate.total.subthreshold, golden.total.subthreshold,
                0.12 * golden.total.subthreshold);
    EXPECT_NEAR(estimate.total.gate, golden.total.gate,
                0.12 * golden.total.gate);
    EXPECT_NEAR(estimate.total.btbt, golden.total.btbt,
                0.12 * golden.total.btbt);
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, CircuitSweep,
                         ::testing::Values("c17", "adder8", "mult4", "alu8",
                                           "s838"));

TEST(EndToEndTest, EstimatorIsMuchFasterThanGolden) {
  const logic::LogicNetlist nl = logic::arrayMultiplier(6);
  const device::Technology tech = device::defaultTechnology();
  const EstimationPlan plan(nl, lib());
  EstimationWorkspace ws(plan);
  Rng rng(9);
  const auto vec = logic::randomPattern(plan.sourceCount(), rng);

  const auto t0 = std::chrono::steady_clock::now();
  (void)core::goldenLeakage(nl, tech, vec);
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    (void)plan.estimate(vec, ws);
  }
  const auto t2 = std::chrono::steady_clock::now();
  const double golden_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double est_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count() / 10.0;
  EXPECT_GT(golden_ms / est_ms, 20.0);  // typically 100-300x
}

}  // namespace
}  // namespace nanoleak
