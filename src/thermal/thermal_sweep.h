/// @file
/// Thermal sweep engine: leakage-vs-temperature curves for whole circuits,
/// with per-component model fitting.
///
/// For one (circuit, technology flavour, input-vector set) the engine
///  1. characterizes the circuit's gate kinds over the temperature grid
///     on core::Characterizer's temperature axis (fixtures compiled once,
///     coefficients re-bound per temperature; on the default warm path,
///     solves continuation-seeded from the adjacent temperature),
///  2. does so through the BatchRunner's TableCache, where each kind is
///     one entry for the whole grid (the key carries the temperature
///     list, since warm-path tables depend on all of it): a repeated
///     sweep at the same corners, or a concurrent identical one on a
///     shared cache, characterizes once, and reuse across circuits is
///     per kind,
///  3. builds an EstimationPlan per temperature and estimates every input
///     pattern through BatchRunner::runPatternTotals (bit-identical at any
///     thread count),
///  4. reduces each temperature to the mean leakage decomposition and fits
///     linear / exponential / piecewise-linear models per component
///     (thermal_fit.h), reporting the fit error a la Sultan et al.
///
/// Determinism: a ThermalCurve is a pure function of (netlist, patterns,
/// options); characterization is sequential per fixture, estimation rides
/// the bit-identical runPatternTotals contract, and all reductions and
/// fits sum in fixed order - thread count never changes a bit (pinned by
/// tests/thermal/thermal_sweep_test.cpp).
///
/// Equivalence (pinned by the thermal tests and gated by bench_thermal):
/// with characterization.solver_path = kCompiled (`nanoleak thermal
/// --cold`) every temperature's tables are bit-identical to a fresh
/// per-temperature Characterizer; the default kCompiledWarmStart agrees
/// with them within solver tolerance (~1e-8 relative).
#pragma once

#include <cstddef>
#include <vector>

#include "core/characterizer.h"
#include "core/leakage_table.h"
#include "device/device_params.h"
#include "device/leakage_breakdown.h"
#include "engine/batch_runner.h"
#include "logic/logic_netlist.h"
#include "thermal/thermal_fit.h"

namespace nanoleak::thermal {

/// Uniform inclusive temperature grid [t_min_k, t_max_k].
struct ThermalGrid {
  /// Lowest grid temperature [K].
  double t_min_k = 233.0;
  /// Highest grid temperature [K].
  double t_max_k = 398.0;
  /// Number of grid points (>= 1; 1 collapses the grid to t_min_k).
  std::size_t points = 8;

  /// The grid temperatures, ascending. Endpoints are exact; interior
  /// points are evenly spaced. Throws nanoleak::Error when points == 0,
  /// when t_max_k < t_min_k, or when points >= 2 and t_max_k == t_min_k
  /// (a multi-point grid needs a non-empty range; only the single-point
  /// grid may collapse both endpoints onto one temperature).
  std::vector<double> temperatures() const;
};

/// Per-temperature libraries for one technology base, in grid order.
struct ThermalLibrarySet {
  /// Grid temperatures [K], ascending.
  std::vector<double> temperatures;
  /// libraries[i] is the full library characterized at temperatures[i].
  std::vector<core::LeakageLibrary> libraries;
};

/// Configuration of one thermal sweep.
struct ThermalSweepOptions {
  /// Temperature grid to sweep.
  ThermalGrid grid;
  /// false = the paper's traditional no-loading accumulation.
  bool with_loading = true;
  /// Loading grid, pin-current surfaces and solver path of the
  /// characterization (kinds are ignored: the circuit decides). The warm
  /// path is the default; kCompiled is the bitwise equivalence reference
  /// the bench gates against.
  core::CharacterizationOptions characterization = [] {
    core::CharacterizationOptions options;
    options.solver_path =
        core::CharacterizationOptions::SolverPath::kCompiledWarmStart;
    return options;
  }();
};

/// Mean leakage decomposition of the circuit at one grid temperature.
struct ThermalPoint {
  /// Grid temperature [K].
  double temperature_k = 0.0;
  /// Mean decomposition over the input patterns [A].
  device::LeakageBreakdown mean;
  /// Smallest per-pattern total [A].
  double total_min = 0.0;
  /// Largest per-pattern total [A].
  double total_max = 0.0;
};

/// A full leakage-vs-temperature curve with per-component model fits.
struct ThermalCurve {
  /// One entry per grid temperature, ascending.
  std::vector<ThermalPoint> points;
  /// Model fits of the mean subthreshold component vs temperature.
  ModelComparison subthreshold;
  /// Model fits of the mean gate-tunneling component vs temperature.
  ModelComparison gate;
  /// Model fits of the mean BTBT component vs temperature.
  ModelComparison btbt;
  /// Model fits of the mean total vs temperature.
  ModelComparison total;
  /// Gate count of the analyzed circuit.
  std::size_t gates = 0;
  /// Number of input patterns evaluated per temperature.
  std::size_t vectors = 0;

  /// The grid temperatures, in point order.
  std::vector<double> temperatures() const;
};

/// Runs thermal sweeps for one technology base (see file comment).
class ThermalSweepEngine {
 public:
  /// `base` supplies devices, VDD and widths; its temperature_k is
  /// ignored (the grid governs). Throws nanoleak::Error on a malformed
  /// grid or loading grid (the latter through core::Characterizer's
  /// constructor).
  explicit ThermalSweepEngine(device::Technology base,
                              ThermalSweepOptions options = {});

  /// Characterizes `netlist`'s gate kinds over the grid and estimates
  /// every pattern at every temperature (see file comment). The runner
  /// provides the thread pool and the table cache. Throws
  /// nanoleak::Error on pattern-width mismatches and ConvergenceError if
  /// a characterization solve fails.
  ThermalCurve run(const logic::LogicNetlist& netlist,
                   const std::vector<std::vector<bool>>& patterns,
                   engine::BatchRunner& runner) const;

  /// The per-temperature libraries for an explicit kind set - the
  /// characterization half of run() on a call-local TableCache, exposed
  /// for benches and tests.
  ThermalLibrarySet characterize(
      const std::vector<gates::GateKind>& kinds) const;

  /// The configuration the engine was built with.
  const ThermalSweepOptions& options() const { return options_; }

 private:
  device::Technology base_;
  ThermalSweepOptions options_;
};

}  // namespace nanoleak::thermal
