/// @file
/// Sweep job model: declarative descriptions of the batched workloads the
/// paper's figures are built from - input-vector sweeps (Fig. 7), corner
/// sweeps over temperature and device flavour (Figs. 8/9), Monte-Carlo
/// populations (Figs. 10/11), and input-pattern sweeps over whole netlists
/// (Fig. 12). BatchRunner executes these over a thread pool; the structs
/// here own all their data so jobs can outlive the code that built them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/loading_analyzer.h"
#include "device/device_params.h"
#include "gates/gate_library.h"
#include "mc/monte_carlo.h"
#include "mc/variation.h"

namespace nanoleak::engine {

/// Fig. 7 workload: loading effect of every listed input vector of a gate,
/// per pin and at the output, over a grid of loading magnitudes.
struct GateVectorSweep {
  /// Gate under test.
  gates::GateKind kind = gates::GateKind::kNand2;
  /// Technology corner the fixture is built at.
  device::Technology technology;
  /// Input vectors to analyze; empty = all 2^pins in vectorIndex order.
  std::vector<std::vector<bool>> vectors;
  /// Loading-current magnitudes [A] the paper's x-axes sweep.
  std::vector<double> loading_amps;
};

/// Result for one input vector of a GateVectorSweep.
struct GateVectorResult {
  /// The analyzed input vector.
  std::vector<bool> input_vector;
  /// Logic level of the gate output under this vector.
  bool output_level = false;
  /// Loading effects at one sweep magnitude.
  struct Point {
    /// Loading magnitude [A].
    double amps = 0.0;
    /// LDIN of each pin at this magnitude (Eq. 5).
    std::vector<core::LoadingEffect> pins;
    /// LDOUT at this magnitude (Eq. 3).
    core::LoadingEffect output;
  };
  /// One entry per sweep.loading_amps magnitude, in order.
  std::vector<Point> points;
};

/// Fig. 9 workload: combined loading contribution of one gate across
/// temperature corners (and optionally across device flavours).
struct CornerSweep {
  /// Gate under test.
  gates::GateKind kind = gates::GateKind::kInv;
  /// Its input vector.
  std::vector<bool> input_vector = {false};
  /// Technology corners; each is evaluated at every temperature. The
  /// paper's Fig. 8 flavours (D25-S/G/JN) are one technology each.
  std::vector<device::Technology> technologies;
  /// Temperature points [K]; empty = each technology's own temperature.
  std::vector<double> temperatures_k;
  /// Fixed input-loading magnitude [A].
  double input_loading_amps = 0.0;
  /// Fixed output-loading magnitude [A].
  double output_loading_amps = 0.0;
};

/// Result for one (technology, temperature) corner.
struct CornerResult {
  /// Index into CornerSweep::technologies.
  std::size_t technology_index = 0;
  /// The corner's temperature [K].
  double temperature_k = 0.0;
  /// Nominal (zero-loading) decomposition at this corner.
  device::LeakageBreakdown nominal;
  /// LDALL with components normalized by the nominal total (Fig. 9 form).
  core::LoadingEffect contribution;
  /// LDALL with components normalized per component (Eq. 4 form).
  core::LoadingEffect effect;
};

/// Fig. 10/11 workload: a Monte-Carlo population of paired with/without-
/// loading solves. Sample i is MonteCarloEngine::runSample(seed, i), whose
/// counter-based RNG stream makes the population bit-identical at any
/// thread count.
struct McSweep {
  /// Nominal technology the trials perturb.
  device::Technology technology;
  /// Process-variation sigmas sampled per trial.
  mc::VariationSigmas sigmas;
  /// Gate-level fixture configuration (the paper's Fig. 10 setup).
  mc::McFixtureConfig fixture;
  /// Population size.
  std::size_t samples = 0;
  /// Base seed; sample i draws from stream deriveStreamSeed(seed, i).
  std::uint64_t seed = 0;
};

/// All input vectors of `kind`, ordered by core::vectorIndex (bit k of the
/// index holds pin k's value).
std::vector<std::vector<bool>> allInputVectors(gates::GateKind kind);

}  // namespace nanoleak::engine
