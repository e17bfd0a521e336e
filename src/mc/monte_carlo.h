// Monte-Carlo engine for the paper's Fig. 10/11: leakage distribution of a
// loaded gate (default: inverter with 6 input-loading and 6 output-loading
// inverters, input '0') with and without loading, under process variation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "device/device_params.h"
#include "device/leakage_breakdown.h"
#include "gates/gate_library.h"
#include "mc/variation.h"

namespace nanoleak::mc {

/// The Fig. 10 circuit shape.
struct McFixtureConfig {
  gates::GateKind kind = gates::GateKind::kInv;
  std::vector<bool> input_vector = {false};  // input '0', output '1'
  int input_loads = 6;
  int output_loads = 6;
};

/// One Monte-Carlo sample: the gate's decomposition with the loading gates
/// present and with them absent, under identical device variations for the
/// shared (driver + gate) devices.
struct McSample {
  device::LeakageBreakdown with_loading;
  device::LeakageBreakdown without_loading;
};

/// Aggregate of a Monte-Carlo run.
struct McSummary {
  double mean_with = 0.0;
  double mean_without = 0.0;
  double std_with = 0.0;
  double std_without = 0.0;
  double max_with = 0.0;
  double max_without = 0.0;
  /// Loading-induced change of the mean / std / max, percent.
  double mean_shift_pct = 0.0;
  double std_shift_pct = 0.0;
  double max_shift_pct = 0.0;
};

/// Runs paired with/without-loading transistor-level solves per sample.
///
/// By default trials run on compiled fixtures: the with/without netlists
/// are built and compiled into SolverKernels once (per worker, pooled),
/// then every trial re-binds the drawn per-device variations and the
/// sampled VDD in place and warm-starts from the nominal operating point -
/// no netlist rebuild per trial. setUseCompiledFixtures(false) restores
/// the historical rebuild-per-trial path (the reference the compiled path
/// is tested against; results agree within solver tolerance, not bitwise).
class MonteCarloEngine {
 public:
  MonteCarloEngine(device::Technology technology, VariationSigmas sigmas,
                   McFixtureConfig config = {});
  ~MonteCarloEngine();
  MonteCarloEngine(const MonteCarloEngine&) = delete;
  MonteCarloEngine& operator=(const MonteCarloEngine&) = delete;

  /// Trial `index` of the population keyed by `seed`. Independent of
  /// every other trial: its RNG stream comes from counter-based seeding
  /// (deriveStreamSeed), so workers may evaluate trials in any order and
  /// any partitioning yields the same population bit for bit. A
  /// population is runSample mapped over [0, samples), as
  /// engine::BatchRunner::run(McSweep) does.
  McSample runSample(std::uint64_t seed, std::size_t index) const;

  /// Summary statistics of total leakage over a population, in sample
  /// order.
  static McSummary summarizeTotals(const std::vector<McSample>& samples);

  /// Selects the per-trial solve strategy (see class comment). Not
  /// thread-safe against concurrent runs; set before running.
  void setUseCompiledFixtures(bool use) { use_compiled_ = use; }
  bool useCompiledFixtures() const { return use_compiled_; }

 private:
  struct CompiledFixtures;

  McSample runOneLegacy(VariationSampler& sampler) const;
  McSample runOneCompiled(CompiledFixtures& fixtures,
                          VariationSampler& sampler) const;
  /// Draws the per-trial die/device variations in fixture instantiation
  /// order (drivers, gate, loaders) - shared by both paths so their
  /// populations are statistically identical.
  std::vector<device::DeviceVariation> drawDeviceVariations(
      VariationSampler& sampler, const DieSample& die) const;

  /// Checks a compiled fixture pair out of the pool (building one when
  /// empty) and back in; trials mutate fixture state, so each is owned by
  /// one worker at a time. Only the first pair built solves the nominal
  /// operating points; later pairs reuse them.
  std::unique_ptr<CompiledFixtures> acquireFixtures() const;
  void releaseFixtures(std::unique_ptr<CompiledFixtures> fixtures) const;

  device::Technology technology_;
  VariationSigmas sigmas_;
  McFixtureConfig config_;
  bool use_compiled_ = true;
  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<CompiledFixtures>> pool_;
  mutable std::once_flag nominal_once_;
  mutable std::vector<double> nominal_with_;
  mutable std::vector<double> nominal_without_;
};

}  // namespace nanoleak::mc
