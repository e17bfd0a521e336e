/// @file
/// Compile-once / execute-many split of the paper's Fig. 13 estimator.
///
/// EstimationPlan is the "compiled" form of (netlist, library, options):
/// gate input pins and net fanouts flattened into CSR arrays, the
/// VectorTable pointer for every (gate, input vector) resolved up front,
/// DFF load counts and the INV boundary tables baked in. A plan is
/// immutable after construction and safe to share across threads.
///
/// EstimationWorkspace holds the per-execution SoA buffers (net values,
/// vector indices, pin currents, net injections, IL/OL, per-gate results).
/// Reusing one workspace across calls makes steady-state estimation
/// allocation-free, and lets estimateDelta() re-estimate an input pattern
/// that differs in a few bits by recomputing only the dirty gates and their
/// net neighbourhoods. A workspace belongs to one thread at a time: share
/// the plan, give each thread its own workspace.
///
/// Both execution paths are bit-identical to the legacy per-call
/// LeakageEstimator::estimate - plan compilation only moves work, it never
/// reorders a floating-point operation.
#pragma once

#include <cstddef>
#include <vector>

#include "core/leakage_table.h"
#include "device/leakage_breakdown.h"
#include "logic/logic_netlist.h"
#include "logic/logic_sim.h"

namespace nanoleak::core {

/// Estimator behaviour switches.
struct EstimatorOptions {
  /// false = traditional accumulation (tables at zero loading).
  bool with_loading = true;
  /// 1 = the paper's one-level propagation; k > 1 refines pin currents
  /// (k-level propagation); ignored when with_loading is false.
  int propagation_iterations = 1;
};

/// Per-gate estimate details.
struct GateEstimate {
  /// Loading-corrected leakage decomposition of the gate [A].
  device::LeakageBreakdown leakage;
  /// Input loading magnitude seen by the gate [A].
  double il = 0.0;
  /// Output loading magnitude seen by the gate [A].
  double ol = 0.0;
};

/// Whole-circuit estimate.
struct EstimateResult {
  /// Sum over all logic gates.
  device::LeakageBreakdown total;
  /// Per-gate details, indexed by GateId.
  std::vector<GateEstimate> per_gate;
};

class EstimationWorkspace;

/// Gate kinds a netlist's estimation library must cover, in enum order
/// (stable across runs, so characterization order - and the table cache's
/// key set - never varies): every kind instantiated in the netlist, plus
/// INV when the netlist has DFFs (the boundary model loads D-pin nets like
/// an INV input). The single source of truth for callers assembling
/// libraries ahead of plan compilation (the scenario runner, the thermal
/// sweep engine).
std::vector<gates::GateKind> estimationKinds(
    const logic::LogicNetlist& netlist);

/// Immutable compiled form of the Fig. 13 estimator for one
/// (netlist, library, options) triple. The netlist and library must
/// outlive the plan and stay unmodified (the plan holds pointers into the
/// library's tables).
class EstimationPlan {
 public:
  /// Compiles the plan. Requires the library to cover every gate kind in
  /// the netlist (INV additionally when the netlist has DFFs, for the
  /// boundary model) and propagation_iterations >= 1. Throws
  /// nanoleak::Error otherwise.
  EstimationPlan(const logic::LogicNetlist& netlist,
                 const LeakageLibrary& library,
                 EstimatorOptions options = {});

  /// The compiled netlist (held by reference).
  const logic::LogicNetlist& netlist() const { return netlist_; }
  /// The table library (held by reference).
  const LeakageLibrary& library() const { return library_; }
  /// The options the plan was compiled with.
  const EstimatorOptions& options() const { return options_; }
  /// Number of logic gates in the compiled netlist.
  std::size_t gateCount() const { return gate_count_; }
  /// Number of nets in the compiled netlist.
  std::size_t netCount() const { return net_count_; }
  /// Number of source values estimate()/estimateDelta() expect.
  std::size_t sourceCount() const { return simulator_.sourceCount(); }

  /// Full evaluation of one input pattern (see LogicNetlist::sourceNets()
  /// for the value ordering) into a reusable result. Allocation-free once
  /// `out` and `ws` have warmed up.
  void estimate(const std::vector<bool>& source_values,
                EstimationWorkspace& ws, EstimateResult& out) const;
  /// Convenience overload returning a fresh result.
  EstimateResult estimate(const std::vector<bool>& source_values,
                          EstimationWorkspace& ws) const;

  /// Incremental evaluation: reuses the state `ws` holds from its previous
  /// estimate()/estimateDelta() on this plan, re-simulating only the
  /// fanout cone of the flipped source bits and re-estimating only dirty
  /// gates and their net neighbourhoods. Falls back to full evaluation on
  /// a cold workspace, when propagation_iterations > 1, or when the dirty
  /// region is a large fraction of the circuit. Results are bit-identical
  /// to estimate() in every case.
  void estimateDelta(const std::vector<bool>& source_values,
                     EstimationWorkspace& ws, EstimateResult& out) const;
  /// Convenience overload returning a fresh result.
  EstimateResult estimateDelta(const std::vector<bool>& source_values,
                               EstimationWorkspace& ws) const;
  /// estimateDelta() for callers that read only the whole-circuit total:
  /// the same evaluation (bit-identical total, same path counters) without
  /// copying the per-gate results out of the workspace.
  device::LeakageBreakdown estimateDeltaTotal(
      const std::vector<bool>& source_values, EstimationWorkspace& ws) const;

 private:
  friend class EstimationWorkspace;

  void checkWorkspace(const EstimationWorkspace& ws) const;
  void checkSourceCount(std::size_t got) const;
  /// Full evaluation into the workspace (no argument checks).
  void evaluateFull(const std::vector<bool>& source_values,
                    EstimationWorkspace& ws) const;
  /// Checked incremental evaluation into the workspace; the shared body of
  /// estimateDelta() and estimateDeltaTotal().
  void evaluateDelta(const std::vector<bool>& source_values,
                     EstimationWorkspace& ws) const;
  /// Vector index + resolved table of one gate from current net values.
  void refreshGateVector(EstimationWorkspace& ws, logic::GateId g) const;
  /// IL/OL of one gate from current injections and pin currents (the
  /// paper's IL-IN rule; single definition shared by the full and delta
  /// paths so they cannot drift).
  void refreshGateLoading(EstimationWorkspace& ws, logic::GateId g) const;
  /// refreshGateLoading + table lookup into the per-gate result.
  void refreshGateEstimate(EstimationWorkspace& ws, logic::GateId g) const;
  /// Net injection from current pin currents and values.
  double netInjection(const EstimationWorkspace& ws, logic::NetId net) const;
  /// Everything after logic simulation, for all gates.
  void computeAllFromValues(EstimationWorkspace& ws) const;
  /// Re-sums the whole-circuit total from per-gate leakages (gate order).
  void resumTotal(EstimationWorkspace& ws) const;
  void finishResult(const EstimationWorkspace& ws, EstimateResult& out) const;

  const logic::LogicNetlist& netlist_;
  const LeakageLibrary& library_;
  EstimatorOptions options_;
  std::size_t gate_count_ = 0;
  std::size_t net_count_ = 0;
  logic::LogicSimulator simulator_;

  static constexpr logic::GateId kNoDriver =
      static_cast<logic::GateId>(-1);

  // CSR gate inputs: pin slot s of gate g spans
  // [pin_offset_[g], pin_offset_[g + 1]); pin_net_[s] is the net the pin
  // reads, pin_loadable_[s] whether loading on that net can shift the pin
  // voltage (false for ideally driven primary-input nets).
  std::vector<std::size_t> pin_offset_;
  std::vector<logic::NetId> pin_net_;
  std::vector<char> pin_loadable_;
  std::vector<logic::NetId> gate_output_;

  // CSR net fanout: entry k in [fanout_offset_[net], fanout_offset_[net+1])
  // is the flat pin slot fanout_slot_[k] of gate fanout_gate_[k].
  std::vector<std::size_t> fanout_offset_;
  std::vector<std::size_t> fanout_slot_;
  std::vector<logic::GateId> fanout_gate_;
  std::vector<logic::GateId> net_driver_gate_;

  // DFF boundary model: D pins load their nets like an INV input at the
  // net's logic level.
  bool has_dffs_ = false;
  std::vector<int> dff_load_count_;
  const VectorTable* dff_inv_table_[2] = {nullptr, nullptr};

  // Per-(gate, input vector) tables: gate g's tables span
  // [table_offset_[g], table_offset_[g + 1]) - one per input vector,
  // indexed by vectorIndex().
  std::vector<std::size_t> table_offset_;
  std::vector<const VectorTable*> table_;
};

/// Reusable per-thread execution buffers for one EstimationPlan.
class EstimationWorkspace {
 public:
  /// Sizes every buffer for `plan` (which must outlive the workspace).
  explicit EstimationWorkspace(const EstimationPlan& plan);

  /// The plan this workspace was sized for.
  const EstimationPlan& plan() const { return *plan_; }
  /// True when the workspace holds the state of a previous estimate on its
  /// plan (what estimateDelta() resumes from).
  bool warm() const { return warm_; }
  /// Forgets the previous-estimate state; the next estimateDelta() runs a
  /// full evaluation.
  void invalidate() { warm_ = false; }

 private:
  friend class EstimationPlan;

  const EstimationPlan* plan_;
  bool warm_ = false;

  // SoA execution state (persisted between calls for the delta path).
  std::vector<bool> values_;
  std::vector<const VectorTable*> table_;
  std::vector<double> pin_current_;
  std::vector<double> net_injection_;
  std::vector<double> il_;
  std::vector<double> ol_;
  std::vector<GateEstimate> per_gate_;
  device::LeakageBreakdown total_;

  // Delta-path scratch.
  logic::DeltaSimScratch sim_scratch_;
  std::vector<logic::GateId> dirty_gates_;
  std::vector<logic::NetId> changed_nets_;
  std::vector<logic::NetId> dirty_nets_;
  std::vector<char> net_mark_;
  std::vector<logic::GateId> touched_gates_;
  std::vector<char> gate_mark_;
};

}  // namespace nanoleak::core
