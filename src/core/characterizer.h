/// @file
/// Builds LeakageLibrary tables by sweeping LoadingFixture solves over a
/// loading-current grid for every (gate kind, input vector), optionally
/// along a temperature axis.
#pragma once

#include <vector>

#include "core/leakage_table.h"
#include "device/device_params.h"
#include "gates/gate_library.h"

namespace nanoleak::core {

/// What to characterize and how the fixture solves run.
struct CharacterizationOptions {
  /// How the per-grid-point DC solves run.
  ///  * kLegacy: DcSolver on the fixture netlist, cold-started from logic
  ///    levels every time (the original path; the reference).
  ///  * kCompiled: one SolverKernel per (kind, vector) fixture, cold
  ///    seeds. Bit-identical tables to kLegacy, ~2x faster.
  ///  * kCompiledWarmStart: compiled kernel plus continuation - each grid
  ///    solve is seeded from the neighbouring grid point's solution, and
  ///    on a temperature axis each row start (i, 0) after the first
  ///    temperature from the same grid point at the previous temperature.
  ///    Tables agree with kLegacy within solver tolerance (~1e-8
  ///    relative), not bitwise.
  ///  * kBatched (default): lane-parallel SIMD lockstep - up to
  ///    LoadingFixture::kBatchLanes grid points of a row solve
  ///    simultaneously (SolverKernel::solveLanes), each column seeded from
  ///    the same column of the previous row (column-wise continuation, the
  ///    lane-independent analogue of kCompiledWarmStart's scan-order
  ///    continuation). Tables agree with kCompiledWarmStart within solver
  ///    tolerance (<= 1e-6 relative; the continuation seeds and the
  ///    lockstep transcendentals differ, the converged fixed point does
  ///    not).
  enum class SolverPath { kLegacy, kCompiled, kCompiledWarmStart, kBatched };

  /// Kinds to characterize. Empty = every combinational kind.
  std::vector<gates::GateKind> kinds;
  /// Loading-magnitude grid [A]; must start at 0 and be increasing.
  /// The default spans the paper's 0-3000 nA sweeps with headroom for
  /// high-fanout nets.
  std::vector<double> loading_grid = {0.0,    0.25e-6, 0.5e-6, 1.0e-6,
                                      2.0e-6, 3.0e-6,  4.5e-6, 6.0e-6};
  /// Solve strategy (see SolverPath).
  SolverPath solver_path = SolverPath::kBatched;
};

/// Characterizes a technology into a LeakageLibrary.
class Characterizer {
 public:
  /// Validates the options (grid must start at 0 and increase; empty
  /// kinds expands to every combinational kind). Throws nanoleak::Error
  /// on a malformed grid.
  Characterizer(device::Technology technology,
                CharacterizationOptions options = {});

  /// Runs all fixture solves. Cost scales with
  /// sum over kinds of 2^pins * grid^2; the default full library is a few
  /// thousand small DC solves.
  LeakageLibrary characterize() const;

  /// Characterizes a single kind (all vectors) at the technology's
  /// temperature: characterizeKind(kind, {technology().temperature_k})[0].
  std::vector<VectorTable> characterizeKind(gates::GateKind kind) const;

  /// Characterizes a single kind at every temperature of `temperatures`
  /// (strictly increasing): result[t][v] is the table of input vector v
  /// at temperatures[t]; the technology's own temperature is not used.
  /// Each (kind, vector) fixture is built once, at temperatures[0], and
  /// re-bound before each later temperature
  /// (LoadingFixture::rebindTemperature), which changes no bit: on the
  /// kLegacy, kCompiled and kBatched paths result[t] is bit-identical to
  /// a Characterizer built at temperatures[t]. kCompiledWarmStart adds the
  /// cross-temperature seeds (see SolverPath), so its tables depend on
  /// the whole list. Throws nanoleak::Error on an empty or non-increasing
  /// list and ConvergenceError if a solve fails.
  std::vector<std::vector<VectorTable>> characterizeKind(
      gates::GateKind kind, const std::vector<double>& temperatures) const;

  /// The technology corner being characterized.
  const device::Technology& technology() const { return technology_; }

 private:
  device::Technology technology_;
  CharacterizationOptions options_;
};

/// Convenience: characterize only the kinds present in common logic
/// netlists (INV, BUF, NAND2/3/4, NOR2/3, AND2, OR2, XOR2, AOI21, OAI21,
/// MUX2) - the set the generators emit.
std::vector<gates::GateKind> generatorGateKinds();

}  // namespace nanoleak::core
