#include "mc/monte_carlo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/statistics.h"

namespace nanoleak::mc {
namespace {

MonteCarloEngine makeEngine(VariationSigmas sigmas = VariationSigmas{}) {
  return MonteCarloEngine(device::defaultTechnology(), sigmas,
                          McFixtureConfig{});
}

/// The `samples`-trial population keyed by `seed`: runSample over the
/// sample indices in order, the population engine::BatchRunner builds.
std::vector<McSample> population(const MonteCarloEngine& engine,
                                 std::size_t samples, std::uint64_t seed) {
  std::vector<McSample> out;
  out.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    out.push_back(engine.runSample(seed, i));
  }
  return out;
}

TEST(MonteCarloTest, RejectsBadConfig) {
  McFixtureConfig config;
  config.kind = gates::GateKind::kNand2;
  config.input_vector = {true};  // arity mismatch
  EXPECT_THROW(MonteCarloEngine(device::defaultTechnology(),
                                VariationSigmas{}, config),
               Error);
  config.input_vector = {true, false};
  config.input_loads = -1;
  EXPECT_THROW(MonteCarloEngine(device::defaultTechnology(),
                                VariationSigmas{}, config),
               Error);
}

TEST(MonteCarloTest, CompiledFixturesMatchLegacyRebuildPerTrial) {
  // Same trials through both paths: the compiled fixtures re-bind
  // variations/VDD and warm-start, the legacy path rebuilds and
  // cold-starts. Converged operating points must agree within solver
  // tolerance on every sample.
  MonteCarloEngine compiled = makeEngine();
  MonteCarloEngine legacy = makeEngine();
  legacy.setUseCompiledFixtures(false);
  ASSERT_TRUE(compiled.useCompiledFixtures());
  ASSERT_FALSE(legacy.useCompiledFixtures());

  const std::uint64_t seed = 2024;
  for (std::size_t index : {0u, 3u, 11u}) {
    const McSample a = compiled.runSample(seed, index);
    const McSample b = legacy.runSample(seed, index);
    EXPECT_NEAR(a.with_loading.total(), b.with_loading.total(),
                1e-6 * b.with_loading.total())
        << "sample " << index;
    EXPECT_NEAR(a.without_loading.total(), b.without_loading.total(),
                1e-6 * b.without_loading.total())
        << "sample " << index;
    EXPECT_NEAR(a.with_loading.subthreshold, b.with_loading.subthreshold,
                1e-6 * b.with_loading.total());
    EXPECT_NEAR(a.with_loading.gate, b.with_loading.gate,
                1e-6 * b.with_loading.total());
    EXPECT_NEAR(a.with_loading.btbt, b.with_loading.btbt,
                1e-6 * b.with_loading.total());
  }
}

TEST(MonteCarloTest, DeterministicForSeed) {
  const MonteCarloEngine engine = makeEngine();
  const auto a = population(engine, 10, 77);
  const auto b = population(engine, 10, 77);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].with_loading.total(), b[i].with_loading.total());
    EXPECT_DOUBLE_EQ(a[i].without_loading.total(),
                     b[i].without_loading.total());
  }
}

TEST(MonteCarloTest, ZeroSigmasCollapseToNominal) {
  VariationSigmas zero;
  zero.sigma_l = 0.0;
  zero.sigma_tox = 0.0;
  zero.sigma_vth_inter = 0.0;
  zero.sigma_vth_intra = 0.0;
  zero.sigma_vdd = 0.0;
  const MonteCarloEngine engine = makeEngine(zero);
  const auto samples = population(engine, 5, 3);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].with_loading.total(),
                     samples[0].with_loading.total());
  }
  // With no variation, loading still shifts the leakage (input loading of
  // 6 inverters raises the subthreshold component).
  EXPECT_GT(samples[0].with_loading.subthreshold,
            samples[0].without_loading.subthreshold);
}

TEST(MonteCarloTest, Fig10LoadingShiftsSubthresholdRight) {
  const MonteCarloEngine engine = makeEngine();
  const auto samples = population(engine, 300, 11);
  RunningStats sub_with;
  RunningStats sub_without;
  RunningStats gate_with;
  RunningStats gate_without;
  for (const McSample& s : samples) {
    sub_with.add(s.with_loading.subthreshold);
    sub_without.add(s.without_loading.subthreshold);
    gate_with.add(s.with_loading.gate);
    gate_without.add(s.without_loading.gate);
  }
  // Input loading of six inverters raises the mean subthreshold leakage...
  EXPECT_GT(sub_with.mean(), 1.05 * sub_without.mean());
  // ...while the gate component moves slightly the other way.
  EXPECT_LT(gate_with.mean(), gate_without.mean());
}

TEST(MonteCarloTest, Fig11LoadingWidensTheSpread) {
  // Paper Fig. 11: loading raises the standard deviation of the total
  // leakage considerably more than its mean (the paper's sigma_VDD =
  // 333 mV makes the tunneling loading cause strongly sample-dependent).
  const MonteCarloEngine engine = makeEngine();
  const auto samples = population(engine, 400, 13);
  const McSummary summary = MonteCarloEngine::summarizeTotals(samples);
  EXPECT_GT(summary.mean_shift_pct, 0.0);
  EXPECT_GT(summary.std_shift_pct, 1.15 * summary.mean_shift_pct);
  EXPECT_GT(summary.max_with, summary.max_without);
}

TEST(MonteCarloTest, SpreadShiftExceedsMeanShiftAcrossSigmas) {
  for (double sigma_inter : {30e-3, 50e-3}) {
    VariationSigmas sigmas;
    sigmas.sigma_vth_inter = sigma_inter;
    const auto samples = population(makeEngine(sigmas), 300, 17);
    const McSummary summary = MonteCarloEngine::summarizeTotals(samples);
    EXPECT_GT(summary.std_shift_pct, summary.mean_shift_pct)
        << "sigma_vt_inter=" << sigma_inter;
  }
}

TEST(MonteCarloTest, SummaryOfEmptyRunIsZero) {
  const McSummary summary = MonteCarloEngine::summarizeTotals({});
  EXPECT_DOUBLE_EQ(summary.mean_with, 0.0);
  EXPECT_DOUBLE_EQ(summary.std_shift_pct, 0.0);
}

}  // namespace
}  // namespace nanoleak::mc
