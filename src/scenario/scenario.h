// Declarative scenario model: one named workload = a circuit x a
// technology flavour x a temperature x an input-vector policy x an
// estimation method. Scenarios are plain data - the registry enumerates
// them, the runner executes them through the engine, and the golden
// framework pins their results (the cross-product the paper validates in
// Figs. 5-12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/characterizer.h"
#include "device/device_params.h"
#include "logic/logic_netlist.h"
#include "search/optimizer.h"

namespace nanoleak::scenario {

/// How a scenario picks the input vectors it evaluates.
struct VectorPolicy {
  enum class Kind {
    kFixed,   ///< one fixed pattern (empty `fixed` = all zeros)
    kRandom,  ///< `count` seeded random patterns
    kWalk,    ///< seeded random start, then `count - 1` single-bit flips
  };

  Kind kind = Kind::kRandom;
  /// kFixed: the pattern. Empty means all zeros; otherwise its size must
  /// match the circuit's source count.
  std::vector<bool> fixed;
  /// kRandom / kWalk: RNG seed.
  std::uint64_t seed = 1;
  /// kRandom: number of vectors; kWalk: total walk length including the
  /// starting pattern. Must be >= 1.
  std::size_t count = 16;

  static VectorPolicy fixedPattern(std::vector<bool> bits = {});
  static VectorPolicy random(std::size_t count, std::uint64_t seed);
  static VectorPolicy walk(std::size_t steps, std::uint64_t seed);
};

/// Expands a policy into concrete source patterns for a `bits`-wide
/// circuit. Deterministic: a pure function of (policy, bits). Throws
/// nanoleak::Error on a fixed-pattern width mismatch or count == 0.
std::vector<std::vector<bool>> expandVectors(const VectorPolicy& policy,
                                             std::size_t bits);

/// How the scenario evaluates its workload.
enum class Method {
  kPlanEstimate,  ///< shared EstimationPlan via BatchRunner::runPatternTotals
  kDeltaWalk,     ///< sequential estimateDelta on one warm workspace
  kGolden,        ///< full transistor-level goldenLeakage + isolated sum
  kMonteCarlo,    ///< engine McSweep population (gate-level Fig. 10 fixture)
  kThermalSweep,  ///< thermal::ThermalSweepEngine curve + model fits
  kOptimize,      ///< search::optimizeVector sleep/worst-vector search
};

const char* toString(Method method);
/// Parses "estimate" / "walk" / "golden" / "mc" / "thermal" /
/// "optimize". Throws nanoleak::Error.
Method methodFromString(const std::string& name);

/// Technology preset by flavour name: "d25s", "d25g", "d25jn" (the paper's
/// D25-S/G/JN devices) or "medici" (the 50 nm Fig. 4 device). Throws
/// nanoleak::Error for unknown flavours.
device::Technology technologyForFlavour(const std::string& flavour);
const std::vector<std::string>& knownFlavours();

/// kThermalSweep only: the temperature grid the scenario sweeps (the
/// scenario's scalar temperature_k is ignored by that method).
struct ThermalSpec {
  double t_min_k = 233.0;
  double t_max_k = 398.0;
  /// Grid points, endpoints included (>= 2 for the fits to run).
  std::size_t points = 8;
};

/// kOptimize only: what the vector search looks for and how hard.
struct OptimizeSpec {
  /// Search direction (sleep vector = min, worst case = max).
  search::Objective objective = search::Objective::kMin;
  /// Engine (kAuto = exact up to the source limit, else heuristic).
  search::Algorithm algorithm = search::Algorithm::kAuto;
  /// Heuristic evaluation budget (ignored by the exact engine).
  std::size_t budget = 128;
  /// Heuristic restart-stream master seed.
  std::uint64_t seed = 20050307;
};

/// One named workload.
struct Scenario {
  std::string name;
  /// Circuit name for buildCircuit(); ignored by kMonteCarlo.
  std::string circuit = "c17";
  std::string flavour = "d25s";
  double temperature_k = 300.0;
  /// false = the paper's traditional no-loading accumulation.
  bool with_loading = true;
  Method method = Method::kPlanEstimate;
  VectorPolicy vectors;
  /// Characterization solver path for the estimate methods' tables.
  /// Golden-pinned scenarios stay on the scalar scan-order continuation
  /// path, whose results are byte-stable across SIMD backends; the
  /// batched smoke scenarios opt into SolverPath::kBatched.
  core::CharacterizationOptions::SolverPath char_solver_path =
      core::CharacterizationOptions::SolverPath::kCompiledWarmStart;
  /// kMonteCarlo only.
  std::size_t mc_samples = 64;
  std::uint64_t mc_seed = 20050307;
  /// kThermalSweep only.
  ThermalSpec thermal;
  /// kOptimize only.
  OptimizeSpec optimize;
};

/// The scenario's flavour preset with its temperature applied.
device::Technology technologyFor(const Scenario& sc);

/// Builds a named circuit: "c17", "inv_chain8", "inv_chain32",
/// "fanout_star6", "rca4", "rca8", "alu88", "mult88", any iscasSpec() name
/// (seeded synthetics), or a path ending in ".bench". Throws
/// nanoleak::Error for unknown names.
logic::LogicNetlist buildCircuit(const std::string& name);

/// Every built-in circuit name (no .bench paths), small to large.
std::vector<std::string> builtinCircuitNames();

/// The paper's Fig. 12 roster: the ISCAS89 synthetics in published order,
/// then alu88 and mult88. The single source of truth for benches and
/// suites that walk the paper's circuit table.
std::vector<std::string> fig12CircuitNames();

}  // namespace nanoleak::scenario
