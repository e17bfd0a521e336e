/// @file
/// Golden (full-solve) circuit leakage: the reference every approximation
/// is judged against, standing in for the paper's HSPICE runs.
#pragma once

#include <optional>
#include <vector>

#include "circuit/solver_kernel.h"
#include "device/device_params.h"
#include "device/leakage_breakdown.h"
#include "gates/gate_builder.h"
#include "logic/expander.h"
#include "logic/logic_netlist.h"
#include "logic/logic_sim.h"

namespace nanoleak::core {

/// Result of a golden full-circuit solve.
struct GoldenResult {
  /// Leakage summed over the circuit's logic gates (DFF boundary models
  /// excluded, matching the estimator's accounting).
  device::LeakageBreakdown total;
  /// Per-gate decomposition (indexed by GateId).
  std::vector<device::LeakageBreakdown> per_gate;
  /// Solver sweeps the solve took (work diagnostic).
  std::size_t sweeps = 0;
  /// Nodes in the expanded transistor netlist.
  std::size_t node_count = 0;
  /// Scalar node solves performed (work diagnostic).
  std::size_t node_solves = 0;
};

/// Compile-once golden solver for repeated vectors on one circuit.
///
/// The first solve() expands the netlist to transistors and compiles a
/// SolverKernel (bit-identical to the historical expand-and-DcSolver path);
/// subsequent solves re-bind only the pattern-dependent fixed voltages
/// (primary inputs, DFF pseudo-inputs) and warm-start from the previous
/// operating point with flipped nets snapped to their new logic level -
/// the expensive netlist expansion and device-coefficient compilation are
/// never repeated.
///
/// `netlist` is captured by reference and must outlive the solver.
class GoldenSolver {
 public:
  /// Binds the solver to a circuit + technology (+ optional per-device
  /// variations); expansion and compilation happen on the first solve().
  GoldenSolver(const logic::LogicNetlist& netlist,
               const device::Technology& technology,
               const gates::VariationProvider& variation = {});

  /// Solves for one input pattern. Throws ConvergenceError if the DC
  /// solve fails.
  GoldenResult solve(const std::vector<bool>& source_values);

 private:
  const logic::LogicNetlist& netlist_;
  device::Technology technology_;
  gates::VariationProvider variation_;
  logic::LogicSimulator sim_;
  std::optional<logic::ExpandedCircuit> expanded_;
  std::optional<circuit::SolverKernel> kernel_;
  /// Previous solution (empty until the first successful solve).
  std::vector<double> warm_;
  /// Net values of the previously solved pattern.
  std::vector<bool> prev_values_;

  /// Rebuilds the cold expansion seed for `values` (what a fresh
  /// expandToTransistors of that pattern would have produced).
  std::vector<double> coldSeed(const std::vector<bool>& values) const;
  GoldenResult extract(const circuit::Solution& solution) const;
};

/// Expands the netlist to transistors and solves the full coupled KCL
/// system. Throws ConvergenceError if the DC solve fails.
GoldenResult goldenLeakage(const logic::LogicNetlist& netlist,
                           const device::Technology& technology,
                           const std::vector<bool>& source_values,
                           const gates::VariationProvider& variation = {});

/// Traditional no-loading accumulation: each gate solved in isolation with
/// ideal rails at its simulated input vector, results summed. Memoizes per
/// (kind, vector), so large circuits cost only a handful of solves.
device::LeakageBreakdown isolatedSumLeakage(
    const logic::LogicNetlist& netlist, const device::Technology& technology,
    const std::vector<bool>& source_values);

}  // namespace nanoleak::core
