/// \file
/// Compiled form of a Netlist for repeated DC solves.
///
/// Compiling flattens the netlist into SoA terminal/coefficient arrays with
/// every bias-independent device quantity precomputed once (see
/// device/compiled_model.h) and a CSR node -> incident-(device, terminal)
/// adjacency, so the per-node residuals the Gauss-Seidel driver evaluates
/// thousands of times touch only incident devices through flat arrays -
/// no per-solve incidence rebuild, no pow/log in the hot loop.
///
/// Results are bit-identical to DcSolver on the same netlist, seed and
/// sweep order: both run the one solver_core driver at double, and the
/// compiled device evaluation is bit-identical to Mosfet by contract
/// (pinned by tests/circuit/solver_kernel_test.cpp).
///
/// Re-binding: loading-current sweeps (setSource), rail/pattern changes
/// (setFixedVoltage) and Monte-Carlo per-device variations
/// (rebindVariations) mutate the compiled state in place - topology is
/// never rebuilt. Compile once per (topology); re-bind and re-solve many.
///
/// Lanes: solveLanes() solves up to kLaneWidth operating points at once,
/// one SIMD lane each (util::Lanes). Lanes share everything the kernel
/// holds - temperature, coefficients, rails, options - and differ only in
/// the source currents and seeds their LaneRequest carries, so the kernel
/// keeps no per-lane state. Strategy:
///  * Lockstep sweeps - the solver_core driver and the device templates
///    of device/compiled_model.h at util::Lanes<kLaneWidth>: one residual
///    evaluation walks the CSR incidence for every lane at once.
///  * Convergence masking - lanes that meet tolerance freeze (their
///    voltages stop moving and their work counters stop) while straggler
///    lanes keep iterating; masked blends keep frozen lanes' values exact.
///  * Scalar fallback - any lane the lockstep path fails to converge is
///    re-solved from its original request by the double instantiation on
///    that lane's injected currents, bit-identical to solve() with the
///    same source currents bound. On the width-1 scalar backend every lane
///    takes it, so solveLanes() is bit-exact against solve() there.
/// Vectorized lockstep lanes agree with solve() within 1e-6 (gated by
/// bench_solver_kernel and tests/circuit/solver_kernel_lanes_test.cpp).
/// Both paths poll the thread's cancel token at every sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/dc_solver.h"
#include "circuit/netlist.h"
#include "device/compiled_model.h"
#include "device/leakage_breakdown.h"
#include "device/mosfet.h"
#include "util/simd.h"

namespace nanoleak::circuit {

/// A Netlist compiled for repeated DC solves (see file comment): scalar
/// solve() bit-identical to DcSolver, lane solves via solveLanes(), and
/// in-place re-binding of sources, rails, temperature and variations.
class SolverKernel {
 public:
  /// Lanes per solveLanes() call on the configured backend (1 scalar,
  /// 2 NEON, 4 AVX2).
  static constexpr std::size_t kLaneWidth = util::kNativeLaneWidth;

  /// Compiles `netlist` (topology, fixed bindings, sources, device
  /// coefficients at options.temperature_k). The netlist itself is not
  /// retained - the kernel is self-contained.
  explicit SolverKernel(const Netlist& netlist,
                        SolverOptions options = SolverOptions{});

  /// Solves the compiled circuit; same contract (and same bits) as
  /// DcSolver::solve. Pass the previous operating point as
  /// `initial_guess` to warm-start continuation solves - and, when doing
  /// so, the cold logic-level seed as `cluster_guess` so strongly-coupled
  /// node clusters are still classified from logic intent (see
  /// solver_core.h).
  Solution solve(const std::vector<double>& initial_guess = {},
                 const std::vector<NodeId>& sweep_order = {},
                 const std::vector<double>* cluster_guess = nullptr) const;

  /// One lane of a solveLanes() call.
  struct LaneRequest {
    /// This lane's current of every source [A], in source order (the
    /// currents setSource() binds are not used).
    std::span<const double> source_amps;
    /// Starting node voltages; null means a cold (mid-bracket) start.
    const std::vector<double>* initial_guess = nullptr;
    /// Logic-level voltages for ON/OFF cluster classification, as in
    /// solve(); may be null.
    const std::vector<double>* cluster_guess = nullptr;
  };

  /// Solves 1..kLaneWidth operating points in SIMD lockstep (see file
  /// comment) and returns one Solution per request, in request order.
  /// Non-convergence is reported through Solution::converged, never
  /// thrown, so callers can name the failing lane.
  std::vector<Solution> solveLanes(
      std::span<const LaneRequest> requests) const;

  /// Test hook: caps solveLanes()' lockstep sweep budget (default: the
  /// options' max_sweeps). 0 sends every lane straight to the scalar
  /// fallback.
  void setMaxLockstepSweeps(std::size_t sweeps) {
    max_lockstep_sweeps_ = sweeps;
  }

  /// Re-targets a current source (mirrors Netlist::setCurrentSource).
  void setSource(SourceId source, double amps);

  /// Re-binds the potential of a node that was fixed at compile time.
  void setFixedVoltage(NodeId node, double volts);

  /// Replaces the solver options; recompiles device coefficients only when
  /// the temperature changed.
  void setOptions(const SolverOptions& options);

  /// Re-binds per-device process variations (Monte-Carlo trials) and
  /// recompiles the affected coefficients. `variations.size()` must equal
  /// deviceCount(); devices are in Netlist device order.
  void rebindVariations(std::span<const device::DeviceVariation> variations);

  /// KCL residual at `node`; bit-identical to DcSolver::nodeResidual.
  double nodeResidual(const std::vector<double>& voltages, NodeId node) const;

  /// Per-owner leakage decomposition at `voltages`; bit-identical to
  /// circuit::leakageByOwner on the compiled netlist (devices tagged
  /// kNoOwner land in the extra last slot).
  std::vector<device::LeakageBreakdown> leakageByOwner(
      const std::vector<double>& voltages, std::size_t owner_count) const;

  /// Number of nodes (fixed and free) of the compiled netlist.
  std::size_t nodeCount() const { return fixed_.size(); }
  /// Number of compiled device instances.
  std::size_t deviceCount() const { return coeffs_.size(); }
  /// The bound solver options.
  const SolverOptions& options() const { return options_; }

 private:
  template <typename T>
  friend struct KernelEvaluator;
  static constexpr std::size_t W = kLaneWidth;

  /// Terminal codes match the per-device push order (gate, drain, source,
  /// bulk) so CSR entries accumulate in the same order DcSolver's
  /// incidence lists do.
  struct IncidenceEntry {
    std::uint32_t device;
    std::uint32_t terminal;  // 0 gate, 1 drain, 2 source, 3 bulk
  };

  /// Sum of `amps` over the sources at `node`, in source order.
  double injectedAt(NodeId node, std::span<const double> amps) const;
  /// Per-node injected currents of `amps` (one current per source).
  std::vector<double> injectedFor(std::span<const double> amps) const;

  SolverOptions options_;

  // Nodes.
  std::vector<bool> fixed_;
  std::vector<double> fixed_voltage_;
  std::vector<double> injected_;

  // Devices (SoA).
  std::vector<NodeId> gate_;
  std::vector<NodeId> drain_;
  std::vector<NodeId> source_;
  std::vector<NodeId> bulk_;
  std::vector<int> owner_;
  std::vector<device::DeviceCoeffs> coeffs_;
  /// Retained instances so coefficients can be recompiled on variation or
  /// temperature re-binds.
  std::vector<device::Mosfet> mosfets_;

  // CSR node -> incident (device, terminal), in DcSolver incidence order.
  std::vector<std::size_t> incidence_offset_;
  std::vector<IncidenceEntry> incidence_;

  // Current sources (node, bound amps), plus CSR node -> source indices
  // (in source order, so per-node injected sums accumulate like
  // Netlist::injectedCurrent).
  std::vector<NodeId> source_node_;
  std::vector<double> source_amps_;
  std::vector<std::size_t> source_offset_;
  std::vector<std::size_t> source_index_;

  std::size_t max_lockstep_sweeps_ = static_cast<std::size_t>(-1);
};

}  // namespace nanoleak::circuit
