/// @file
/// Compile-once / execute-many split of the paper's Fig. 13 estimator.
///
/// Fig. 13, for one input pattern: simulate logic values, then for each
/// gate accumulate the input/output loading currents from the
/// pre-characterized pin tunneling currents of its neighbours, and
/// interpolate the gate's leakage decomposition from its (IL, OL) tables.
/// One table pass is the paper's one-level propagation, the only one a
/// plan runs; referenceEstimate() evaluates deeper propagation.
///
/// EstimationPlan is the "compiled" form of (netlist, library, options):
/// gate input pins and net fanouts flattened into CSR arrays, every table
/// the netlist reads copied into one contiguous arena (one 32-bit block
/// index per gate, plus the input vector, names a gate's table), DFF load
/// counts and the INV boundary pin currents baked in. The options only
/// choose what compiles into the arena: without loading, each table is
/// one point holding the isolated nominal, with zero pin and boundary
/// currents. A plan is immutable after construction and safe to share
/// across threads.
///
/// EstimationWorkspace holds the per-execution SoA buffers (net values,
/// resolved table blocks, pin currents, net injections, per-gate results).
/// Reusing one workspace across calls makes steady-state estimation
/// allocation-free, and lets estimateDelta() re-estimate an input pattern
/// that differs in a few bits by recomputing only the dirty gates and their
/// net neighbourhoods. A workspace belongs to one thread at a time: share
/// the plan, give each thread its own workspace.
///
/// estimateBlock() is the third path, for runs of unrelated patterns: it
/// evaluates kBlockPatterns patterns at once, gate-major, from one
/// bit-parallel logic simulation.
///
/// All three paths evaluate the same one Fig. 13 and are bit-identical to
/// referenceEstimate(), which evaluates it directly over
/// VectorTable::lookup: the arena lookup runs the same locateOnAxis and
/// Bilinear arithmetic on copies of the same values, and plan compilation
/// only moves work, it never reorders a per-gate floating-point operation.
/// Totals over gates are order-free (util::OrderFreeSum): each is the
/// correctly rounded exact sum of the per-gate components, whatever order
/// or grouping a path adds them in, so a delta step only replaces the
/// gates it touched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/leakage_table.h"
#include "device/leakage_breakdown.h"
#include "logic/logic_netlist.h"
#include "logic/logic_sim.h"
#include "util/order_free_sum.h"

namespace nanoleak::core {

/// Estimator behaviour switches.
struct EstimatorOptions {
  /// false = traditional accumulation: every gate contributes its
  /// isolated nominal (VectorTable::isolated_nominal) at IL = OL = 0.
  bool with_loading = true;
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
  /// Sum over all logic gates, per component the correctly rounded exact
  /// sum of the per-gate values (util::OrderFreeSum).
  device::LeakageBreakdown total;
  /// Per-gate details, indexed by GateId.
  std::vector<GateEstimate> per_gate;
};

class EstimationWorkspace;

/// Patterns EstimationPlan::estimateBlock() evaluates together. Its block
/// scratch holds this many injections per net.
inline constexpr std::size_t kBlockPatterns = 8;

/// True when `patterns`, walked in order, change on average at least the
/// share of source bits at which estimateDelta() stops paying off (a
/// quarter, the share of dirty gates at which it falls back to full
/// evaluation): such runs go to estimateBlock(). Runs of fewer than two
/// patterns count as such; patterns of unequal length do not.
bool favoursBlocks(std::span<const std::vector<bool>> patterns);

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
/// outlive the plan and stay unmodified: the plan reads the netlist and
/// serves both through netlist()/library(), although estimation itself
/// reads only the plan's copy of the tables.
class EstimationPlan {
 public:
  /// Compiles the plan. Requires the library to cover every gate kind in
  /// the netlist (INV additionally when the netlist has DFFs, for the
  /// boundary model), every table to carry one pin current per gate pin
  /// and grids shaped like its axes, every value the plan copies (axis
  /// points, pin currents, cells) to be finite, and every leakage cell to
  /// be below 1 A in magnitude. Throws nanoleak::Error otherwise, naming
  /// the kind and the vector.
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
  /// gates and their net neighbourhoods; the total's order-free sum drops
  /// each re-estimated gate's old leakage and adds its new one, so the
  /// evaluation costs O(touched gates), not O(gates). Falls back to full
  /// evaluation on a cold workspace or when the dirty gates are a large
  /// fraction of the circuit. Results are bit-identical to estimate() in
  /// every case; with a result, copying the per-gate results out costs
  /// O(gates).
  void estimateDelta(const std::vector<bool>& source_values,
                     EstimationWorkspace& ws, EstimateResult& out) const;
  /// estimateDelta() for callers that read only the whole-circuit total:
  /// the same evaluation (bit-identical total, same path counters) without
  /// copying the per-gate results out of the workspace.
  device::LeakageBreakdown estimateDeltaTotal(
      const std::vector<bool>& source_values, EstimationWorkspace& ws) const;

  /// Full evaluation of up to kBlockPatterns patterns at once, gate-major:
  /// one bit-parallel logic simulation of the block, one gate pass that
  /// selects every (gate, pattern) table and scatters its nominal pin
  /// currents into per-(net, pattern) injections, and one that computes
  /// IL/OL and looks up each gate's leakage for every pattern. out[i] is
  /// bit-identical to estimate(patterns[i]). The workspace's
  /// estimateDelta() state stays valid. Allocation-free once the
  /// workspace's block scratch and every out[i] have warmed up.
  void estimateBlock(std::span<const std::vector<bool>> patterns,
                     EstimationWorkspace& ws,
                     std::span<EstimateResult> out) const;
  /// estimateBlock() for callers that read only the whole-circuit totals:
  /// totals[i] is bit-identical to estimate(patterns[i]).total, and no
  /// per-gate result is written.
  void estimateBlockTotals(std::span<const std::vector<bool>> patterns,
                           EstimationWorkspace& ws,
                           std::span<device::LeakageBreakdown> totals) const;

 private:
  friend class EstimationWorkspace;

  void checkWorkspace(const EstimationWorkspace& ws) const;
  void checkSourceCount(std::size_t got) const;
  /// Copies the tables of `kind` into the arena; returns its first block.
  std::uint32_t appendKindTables(gates::GateKind kind, std::size_t pins);
  /// Full evaluation into the workspace (no argument checks).
  void evaluateFull(const std::vector<bool>& source_values,
                    EstimationWorkspace& ws) const;
  /// Checked incremental evaluation into the workspace; the shared body of
  /// estimateDelta() and estimateDeltaTotal().
  void evaluateDelta(const std::vector<bool>& source_values,
                     EstimationWorkspace& ws) const;
  /// Checked block evaluation; the shared body of estimateBlock() (per-gate
  /// results and totals into `out`) and estimateBlockTotals() (`out` null,
  /// totals into `totals`).
  void evaluateBlock(std::span<const std::vector<bool>> patterns,
                     EstimationWorkspace& ws, EstimateResult* out,
                     device::LeakageBreakdown* totals) const;
  /// The block path's first gate pass: every gate's vector index per
  /// pattern into the block scratch, and the block's per-(net, pattern)
  /// injections.
  void scatterBlock(std::size_t count, EstimationWorkspace& ws) const;
  /// Table block of one gate from current net values.
  void refreshGateVector(EstimationWorkspace& ws, logic::GateId g) const;
  /// The nominal pin currents of one gate's table into its pin slots.
  void loadNominalPinCurrents(EstimationWorkspace& ws, logic::GateId g) const;
  struct TableBlock;
  /// IL/OL of one gate from current injections and pin currents (the
  /// paper's IL-IN rule), then lookupLeakage into the per-gate result: the
  /// per-gate step of the full and the delta paths.
  void refreshGateEstimate(EstimationWorkspace& ws, logic::GateId g) const;
  /// The leakage of a block's table at the estimate's (IL, OL): the one
  /// lookup of every path, so they cannot drift.
  void lookupLeakage(const TableBlock& block, GateEstimate& estimate) const;
  /// Net injection from current pin currents and values.
  double netInjection(const EstimationWorkspace& ws, logic::NetId net) const;
  /// Everything after logic simulation, for all gates.
  void computeAllFromValues(EstimationWorkspace& ws) const;
  void finishResult(const EstimationWorkspace& ws, EstimateResult& out) const;

  const logic::LogicNetlist& netlist_;
  const LeakageLibrary& library_;
  EstimatorOptions options_;
  std::size_t gate_count_ = 0;
  std::size_t net_count_ = 0;
  logic::LogicSimulator simulator_;

  // Gate, net and pin-slot indices of the compiled arrays (32-bit, so the
  // hot pass streams half the bytes).
  using Index = std::uint32_t;
  static constexpr Index kNoDriver = static_cast<Index>(-1);

  // CSR gate inputs: pin slot s of gate g spans
  // [pin_offset_[g], pin_offset_[g + 1]); pin_net_[s] is the net the pin
  // reads, pin_loadable_[s] whether loading on that net can shift the pin
  // voltage (false for ideally driven primary-input nets).
  std::vector<Index> pin_offset_;
  std::vector<Index> pin_net_;
  std::vector<char> pin_loadable_;
  std::vector<Index> gate_output_;

  // CSR net fanout: entry k in [fanout_offset_[net], fanout_offset_[net+1])
  // is the flat pin slot fanout_slot_[k] of gate fanout_gate_[k], in
  // ascending slot order, i.e. (gate, pin) order. The block path scatters
  // pin currents in that order, so its injections sum like netInjection().
  std::vector<Index> fanout_offset_;
  std::vector<Index> fanout_slot_;
  std::vector<Index> fanout_gate_;
  std::vector<Index> net_driver_gate_;

  // DFF boundary model: D pins load their nets like an INV input at the
  // net's logic level (the nominal INV pin current at input 0 and 1; zero
  // without loading).
  bool has_dffs_ = false;
  std::vector<int> dff_load_count_;
  double dff_pin_current_[2] = {0.0, 0.0};

  // Table arena: every (kind, input vector) table the gates read, copied
  // into one contiguous array. A block holds the nominal pin currents, the
  // IL then the OL axis points, and the (sub, gate, btbt) cells
  // interleaved per grid point (row-major, one row per IL point). Without
  // loading a block is one point: zero pin currents, IL = OL = 0, and the
  // isolated nominal as its one cell, which the lookup returns unchanged.
  struct TableBlock {
    std::uint32_t offset;  // arena index of the block's first value
    std::uint16_t rows;    // IL axis points
    std::uint16_t cols;    // OL axis points
    std::uint16_t pins;    // nominal pin currents

    // Arena indices of the block's sections.
    std::size_t pinCurrent() const { return offset; }
    std::size_t ilAxis() const { return pinCurrent() + pins; }
    std::size_t olAxis() const { return ilAxis() + rows; }
    std::size_t cells() const { return olAxis() + cols; }
    std::size_t end() const { return cells() + std::size_t{3} * rows * cols; }
  };
  std::vector<double> arena_;
  std::vector<TableBlock> blocks_;
  // Gate g at input vector v (vectorIndex()) reads block
  // gate_block_[g] + v: a kind's blocks are consecutive.
  std::vector<std::uint32_t> gate_block_;
};

/// Reusable per-thread execution buffers for one EstimationPlan.
class EstimationWorkspace {
 public:
  /// Binds the workspace to `plan` (which must outlive it). The buffers of
  /// the full/delta paths and of the block path are sized on each path's
  /// first use, so a workspace that only ever runs blocks holds no
  /// per-gate state.
  explicit EstimationWorkspace(const EstimationPlan& plan);

  /// The plan this workspace was sized for.
  const EstimationPlan& plan() const { return *plan_; }

 private:
  friend class EstimationPlan;

  /// Sizes the full/delta-path buffers once (evaluateFull's first call).
  void sizeFullPath();

  const EstimationPlan* plan_;
  bool warm_ = false;
  bool full_path_sized_ = false;

  // SoA execution state (persisted between calls for the delta path).
  std::vector<bool> values_;
  std::vector<std::uint32_t> block_;  // per gate: its current table block
  std::vector<double> pin_current_;
  std::vector<double> net_injection_;
  std::vector<GateEstimate> per_gate_;
  // The order-free sum of every gate's (sub, gate, btbt) in per_gate_, and
  // the total it reads.
  util::OrderFreeSum<3> total_sum_;
  device::LeakageBreakdown total_;

  // Block-path scratch (estimateBlock), made on first use: per net its
  // value word (bit i = pattern i) and kBlockPatterns injections; per gate
  // its patterns' vector indices, one byte each.
  struct BlockScratch {
    std::vector<std::uint64_t> values;
    std::vector<double> injection;
    std::vector<std::uint64_t> vectors;
  };
  std::unique_ptr<BlockScratch> block_scratch_;

  // Delta-path scratch.
  logic::DeltaSimScratch sim_scratch_;
  std::vector<logic::GateId> dirty_gates_;
  std::vector<logic::NetId> changed_nets_;
  std::vector<logic::NetId> dirty_nets_;
  std::vector<char> net_mark_;
  std::vector<logic::GateId> touched_gates_;
  std::vector<char> gate_mark_;
};

/// Fig. 13 evaluated gate by gate with no plan, the reference the plan's
/// paths are pinned against: logic values from LogicSimulator, each net's
/// injection the sum of its fanout pins' currents in netlist.fanout()
/// order plus an INV input current per DFF D pin, the IL-IN rule (each
/// pin sees its net minus its own current; primary-input nets are ideal),
/// VectorTable::lookup at the resulting (IL, OL), and the total the
/// order-free sum of the per-gate components, as every plan path sums it.
/// `levels` is the propagation depth: level 1 (the paper's, and the
/// plan's) uses the nominal pin currents; each further level re-derives
/// every pin current with VectorTable::pinCurrentAt at the (IL, OL) of the
/// level before. Without loading every gate reads its isolated nominal at
/// IL = OL = 0, whatever `levels`. Throws nanoleak::Error on levels < 1, a
/// wrong source count, a missing table, or a table the plan would reject
/// for a non-finite value or a leakage cell of 1 A or more.
EstimateResult referenceEstimate(const logic::LogicNetlist& netlist,
                                 const LeakageLibrary& library,
                                 const EstimatorOptions& options,
                                 const std::vector<bool>& source_values,
                                 int levels = 1);

}  // namespace nanoleak::core
