// The engine's central contract: results are bit-identical regardless of
// thread count, and engine-backed sweeps reproduce the single-threaded
// paths exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/solver_stats.h"
#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/loading_analyzer.h"
#include "engine/batch_runner.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/units.h"

namespace nanoleak::engine {
namespace {

McSweep smallMcSweep() {
  McSweep sweep;
  sweep.technology = device::defaultTechnology();
  sweep.samples = 41;
  sweep.seed = 20050307;
  return sweep;
}

Histogram totalsHistogram(const std::vector<mc::McSample>& samples) {
  std::vector<double> totals;
  totals.reserve(samples.size());
  for (const mc::McSample& s : samples) {
    totals.push_back(toNanoAmps(s.with_loading.total()));
  }
  return Histogram::fromData(totals, 20);
}

TEST(EngineDeterminismTest, McSweepBitIdenticalAcross1And2And8Threads) {
  const McSweep sweep = smallMcSweep();
  BatchRunner runner1(BatchOptions{.threads = 1});
  BatchRunner runner2(BatchOptions{.threads = 2});
  BatchRunner runner8(BatchOptions{.threads = 8});
  // The work is as deterministic as the results: two nominal solves per
  // engine, however many workers build fixture pairs, plus two per trial.
  circuit::SolveStats work1, work2, work8;
  const auto runCounted = [&](BatchRunner& runner, circuit::SolveStats& work) {
    const circuit::ScopedSolveStats window;
    McBatchResult result = runner.run(sweep);
    work = window.delta();
    return result;
  };
  const McBatchResult r1 = runCounted(runner1, work1);
  const McBatchResult r2 = runCounted(runner2, work2);
  const McBatchResult r8 = runCounted(runner8, work8);
  EXPECT_EQ(work1.solves, 2 + 2 * sweep.samples);
  for (const circuit::SolveStats* work : {&work2, &work8}) {
    EXPECT_EQ(work->solves, work1.solves);
    EXPECT_EQ(work->node_solves, work1.node_solves);
  }

  ASSERT_EQ(r1.samples.size(), sweep.samples);
  ASSERT_EQ(r2.samples.size(), sweep.samples);
  ASSERT_EQ(r8.samples.size(), sweep.samples);
  for (std::size_t i = 0; i < sweep.samples; ++i) {
    for (const McBatchResult* other : {&r2, &r8}) {
      EXPECT_EQ(r1.samples[i].with_loading.subthreshold,
                other->samples[i].with_loading.subthreshold);
      EXPECT_EQ(r1.samples[i].with_loading.gate,
                other->samples[i].with_loading.gate);
      EXPECT_EQ(r1.samples[i].with_loading.btbt,
                other->samples[i].with_loading.btbt);
      EXPECT_EQ(r1.samples[i].without_loading.total(),
                other->samples[i].without_loading.total());
    }
  }

  // The summary, reduced once in sample order: bit-identical, not just
  // close.
  for (const McBatchResult* other : {&r2, &r8}) {
    EXPECT_EQ(r1.summary.mean_with, other->summary.mean_with);
    EXPECT_EQ(r1.summary.mean_without, other->summary.mean_without);
    EXPECT_EQ(r1.summary.std_with, other->summary.std_with);
    EXPECT_EQ(r1.summary.max_with, other->summary.max_with);
    EXPECT_EQ(r1.summary.std_shift_pct, other->summary.std_shift_pct);
  }

  // Histograms of the populations are equal bin by bin.
  const Histogram h1 = totalsHistogram(r1.samples);
  for (const McBatchResult* other : {&r2, &r8}) {
    const Histogram h = totalsHistogram(other->samples);
    ASSERT_EQ(h1.binCount(), h.binCount());
    EXPECT_EQ(h1.lo(), h.lo());
    EXPECT_EQ(h1.hi(), h.hi());
    for (std::size_t bin = 0; bin < h1.binCount(); ++bin) {
      EXPECT_EQ(h1.count(bin), h.count(bin));
    }
  }
}

TEST(EngineDeterminismTest, VectorSweepMatchesDirectAnalyzerLoop) {
  GateVectorSweep sweep;
  sweep.kind = gates::GateKind::kNand2;
  sweep.technology = device::defaultTechnology();
  sweep.loading_amps = {0.0, nA(1000.0), nA(3000.0)};

  BatchRunner runner(BatchOptions{.threads = 4});
  const std::vector<GateVectorResult> results = runner.run(sweep);
  const auto vectors = allInputVectors(sweep.kind);
  ASSERT_EQ(results.size(), vectors.size());

  for (std::size_t v = 0; v < vectors.size(); ++v) {
    core::LoadingAnalyzer analyzer(sweep.kind, vectors[v], sweep.technology);
    ASSERT_EQ(results[v].points.size(), sweep.loading_amps.size());
    for (std::size_t p = 0; p < sweep.loading_amps.size(); ++p) {
      const double amps = sweep.loading_amps[p];
      for (int pin = 0; pin < 2; ++pin) {
        EXPECT_EQ(results[v].points[p].pins[pin].total_pct,
                  analyzer.pinLoadingEffect(pin, amps).total_pct);
      }
      EXPECT_EQ(results[v].points[p].output.total_pct,
                analyzer.outputLoadingEffect(amps).total_pct);
    }
  }
}

TEST(EngineDeterminismTest, CornerSweepMatchesDirectAnalyzerLoop) {
  CornerSweep sweep;
  sweep.technologies = {device::mediciTechnology(),
                        device::defaultTechnology()};
  sweep.temperatures_k = {273.15, 348.15, 423.15};
  sweep.input_loading_amps = nA(2000.0);
  sweep.output_loading_amps = nA(2000.0);

  BatchRunner runner(BatchOptions{.threads = 8});
  const std::vector<CornerResult> results = runner.run(sweep);
  const std::size_t temps = sweep.temperatures_k.size();
  ASSERT_EQ(results.size(), sweep.technologies.size() * temps);

  // Technology-major: the temperature varies fastest.
  for (std::size_t i = 0; i < results.size(); ++i) {
    device::Technology tech = sweep.technologies[i / temps];
    tech.temperature_k = sweep.temperatures_k[i % temps];
    core::LoadingAnalyzer analyzer(sweep.kind, sweep.input_vector, tech);
    const core::LoadingEffect expected = analyzer.combinedLoadingContribution(
        sweep.input_loading_amps, sweep.output_loading_amps);
    EXPECT_EQ(results[i].technology_index, i / temps);
    EXPECT_EQ(results[i].temperature_k, tech.temperature_k);
    EXPECT_EQ(results[i].contribution.subthreshold_pct,
              expected.subthreshold_pct);
    EXPECT_EQ(results[i].contribution.total_pct, expected.total_pct);
    EXPECT_EQ(results[i].nominal.total(), analyzer.nominal().total());
  }
}

/// Bitwise equality of two doubles (unlike ==, tells -0 from +0 and
/// matches NaN to itself).
bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool sameBreakdown(const device::LeakageBreakdown& a,
                   const device::LeakageBreakdown& b) {
  return sameBits(a.subthreshold, b.subthreshold) &&
         sameBits(a.gate, b.gate) && sameBits(a.btbt, b.btbt);
}

/// Every field of two estimates, bitwise: the totals and each gate's
/// components, IL and OL.
::testing::AssertionResult sameEstimate(const core::EstimateResult& a,
                                        const core::EstimateResult& b) {
  if (!sameBreakdown(a.total, b.total)) {
    return ::testing::AssertionFailure() << "totals differ";
  }
  if (a.per_gate.size() != b.per_gate.size()) {
    return ::testing::AssertionFailure() << "gate counts differ";
  }
  for (std::size_t g = 0; g < a.per_gate.size(); ++g) {
    const core::GateEstimate& x = a.per_gate[g];
    const core::GateEstimate& y = b.per_gate[g];
    if (!sameBreakdown(x.leakage, y.leakage) || !sameBits(x.il, y.il) ||
        !sameBits(x.ol, y.ol)) {
      return ::testing::AssertionFailure() << "gate " << g << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(EngineDeterminismTest, PatternSweepSharedPlanBitIdenticalAcrossThreads) {
  // One immutable plan shared by every worker, one workspace per thread,
  // random chunks through the block kernel and walk chunks through
  // incremental deltas - and still bit-identical to the single-pattern
  // estimate() at any thread count, chunk size and batch size, per gate
  // and total-only, with and without loading.
  core::CharacterizationOptions options;
  options.kinds = {gates::GateKind::kNand2, gates::GateKind::kInv};
  options.loading_grid = {0.0, 1.0e-6, 3.0e-6};
  const core::LeakageLibrary library =
      core::Characterizer(device::defaultTechnology(), options)
          .characterize();
  const logic::LogicNetlist netlist = logic::c17();

  core::EstimatorOptions no_loading;
  no_loading.with_loading = false;

  Rng rng(41);
  std::vector<std::vector<std::vector<bool>>> batches;
  for (int size : {1, 9, 53}) {  // partial blocks; not a multiple of a chunk
    std::vector<std::vector<bool>> batch;
    for (int i = 0; i < size; ++i) {
      batch.push_back(logic::randomPattern(5, rng));
    }
    batches.push_back(std::move(batch));
  }
  // A 1-bit walk: consecutive patterns differ in one of c17's 5 sources,
  // under the quarter that sends a chunk to the block kernel.
  std::vector<std::vector<bool>> walk{logic::randomPattern(5, rng)};
  for (int i = 1; i < 40; ++i) {
    walk.push_back(walk.back());
    const std::size_t bit = rng.uniformInt(5);
    walk.back()[bit] = !walk.back()[bit];
  }
  batches.push_back(walk);
  const std::size_t walk_index = batches.size() - 1;

  for (const core::EstimatorOptions& plan_options :
       {core::EstimatorOptions{}, no_loading}) {
    const core::EstimationPlan plan(netlist, library, plan_options);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const std::vector<std::vector<bool>>& patterns = batches[b];
      std::vector<core::EstimateResult> reference;
      for (const auto& pattern : patterns) {
        core::EstimationWorkspace ws(plan);
        reference.push_back(plan.estimate(pattern, ws));
      }
      for (int threads : {1, 4, 8}) {
        for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  BatchOptions{}.pattern_chunk}) {
          const std::string context =
              "loading=" + std::to_string(plan_options.with_loading) +
              " batch=" + std::to_string(b) +
              " threads=" + std::to_string(threads) +
              " chunk=" + std::to_string(chunk);
          BatchRunner runner(
              BatchOptions{.threads = threads, .pattern_chunk = chunk});
          const std::uint64_t blocked = obs::counterValue("estimate.blocked");
          const std::vector<core::EstimateResult> results =
              runner.runPatterns(plan, patterns);
          const std::vector<device::LeakageBreakdown> totals =
              runner.runPatternTotals(plan, patterns);
          ASSERT_EQ(results.size(), reference.size()) << context;
          ASSERT_EQ(totals.size(), reference.size()) << context;
          for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(sameEstimate(reference[i], results[i]))
                << context << " pattern " << i;
            EXPECT_TRUE(sameBreakdown(reference[i].total, totals[i]))
                << context << " pattern " << i;
          }
          // A walk chunk of two or more patterns takes the delta path.
          if (b == walk_index && chunk > 1) {
            EXPECT_EQ(obs::counterValue("estimate.blocked"), blocked)
                << context;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nanoleak::engine
