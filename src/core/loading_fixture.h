/// @file
/// Characterization fixture: one gate under test, reference drivers at its
/// input pins, and ideal current sources injecting the paper's IL-IN /
/// IL-OUT loading currents.
///
/// This is the paper's Fig. 1 reduced to its essentials: the loading of a
/// net by other gates' tunneling currents is represented by a current
/// source of the same magnitude and sign, while the net keeps the finite
/// driver resistance that turns that current into the voltage shift which
/// perturbs the gate's leakage.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/dc_solver.h"
#include "circuit/netlist.h"
#include "circuit/solver_kernel.h"
#include "device/leakage_breakdown.h"
#include "gates/gate_builder.h"
#include "gates/gate_library.h"

namespace nanoleak::core {

/// Owner tag of the gate under test inside a fixture.
inline constexpr int kGateUnderTest = 0;
/// Owner tag base of the per-pin reference drivers (driver i owns
/// kDriverOwnerBase + i).
inline constexpr int kDriverOwnerBase = 1000;

/// A solved fixture evaluation.
struct FixtureResult {
  /// Leakage of the gate under test only (drivers excluded).
  device::LeakageBreakdown leakage;
  /// Voltage at each input pin net.
  std::vector<double> pin_voltages;
  /// Voltage at the output net.
  double output_voltage = 0.0;
  /// Gate-tunneling current each input pin injects INTO its net
  /// (positive raises the net; pins at '1' draw, i.e. negative).
  std::vector<double> pin_currents_into_net;
  /// Total solver sweeps (work metric).
  std::size_t sweeps = 0;
  /// Full solved node voltages - feed back into solveCompiled() as the
  /// warm seed of the neighbouring grid point (continuation).
  std::vector<double> voltages;
};

/// One lane of a batched fixture solve: an independent operating point
/// (loading currents, optional warm seed) evaluated in lockstep with up
/// to kBatchLanes-1 siblings by LoadingFixture::solveBatched().
struct FixtureBatchPoint {
  /// Loading current [A] injected into each input pin net (one entry per
  /// pin, same order as the gate's pins).
  std::vector<double> pin_loading;
  /// Loading current [A] injected into the output net.
  double output_loading = 0.0;
  /// Continuation seed (full node-voltage vector) or nullptr for a cold
  /// start. Same semantics as solveCompiled()'s warm_seed.
  const std::vector<double>* warm_seed = nullptr;
  /// Loading-grid indices of this point (row: input loading, column:
  /// output loading), named in the ConvergenceError if this lane fails
  /// ("grid point (2,3)").
  std::size_t grid_row = 0;
  std::size_t grid_col = 0;  ///< See grid_row.
};

/// Reusable fixture: build once per (kind, vector), then sweep loading
/// currents cheaply via setInputLoading()/setOutputLoading().
class LoadingFixture {
 public:
  /// Builds the fixture for `kind` with the given input vector.
  /// Each input pin gets its own reference-inverter driver producing the
  /// pin's logic level, plus a loading current source. The output net gets
  /// a loading current source.
  LoadingFixture(gates::GateKind kind, std::vector<bool> input_vector,
                 const device::Technology& technology);

  /// Sets the total input loading current [A], split equally across input
  /// pins (the paper's estimator aggregates loading the same way).
  void setInputLoading(double amps);

  /// Sets the loading current [A] on one specific input pin.
  void setPinLoading(int pin, double amps);

  /// Sets the output loading current [A].
  void setOutputLoading(double amps);

  /// Solves the fixture. Throws ConvergenceError if the DC solve fails.
  FixtureResult solve() const;

  /// Solves on a SolverKernel compiled once per fixture (lazily, on first
  /// call) and re-bound with the current loading currents. With a null
  /// `warm_seed` this is bit-identical to solve(); with the voltages of a
  /// neighbouring loading point it continuation-solves in fewer sweeps.
  /// Throws ConvergenceError if the DC solve fails.
  FixtureResult solveCompiled(const std::vector<double>* warm_seed = nullptr);

  /// Maximum number of points one solveBatched() call accepts (the SIMD
  /// lane width of the build).
  static constexpr std::size_t kBatchLanes = circuit::SolverKernel::kLaneWidth;

  /// Solves up to kBatchLanes independent operating points in SIMD
  /// lockstep on the kernel solveCompiled() uses
  /// (SolverKernel::solveLanes). Each point carries its own loading
  /// currents and warm seed; results are returned in point order. A lane
  /// whose solve fails raises ConvergenceError naming that point's grid
  /// indices. With the scalar backend (kBatchLanes == 1) this is
  /// bit-identical to solveCompiled(); with wider backends results agree
  /// to <= 1e-6.
  std::vector<FixtureResult> solveBatched(
      std::span<const FixtureBatchPoint> points);

  /// Re-binds the fixture's operating temperature without rebuilding the
  /// netlist or the compiled kernel: device coefficients are recompiled at
  /// the new temperature (SolverKernel::setOptions), topology and seeds
  /// are untouched. A cold solveCompiled() after this call is
  /// bit-identical to a fixture freshly constructed at `temperature_k` -
  /// the property Characterizer's temperature axis rests on (pinned by
  /// tests/core/loading_fixture_test.cpp).
  void rebindTemperature(double temperature_k);

  /// The gate kind under test.
  gates::GateKind kind() const { return kind_; }
  /// The input vector the fixture was built for.
  const std::vector<bool>& inputVector() const { return input_vector_; }
  /// The technology (reflects rebindTemperature).
  const device::Technology& technology() const { return technology_; }
  /// Number of input pins of the gate under test.
  int pinCount() const { return static_cast<int>(input_vector_.size()); }

 private:
  gates::GateKind kind_;
  std::vector<bool> input_vector_;
  device::Technology technology_;
  circuit::Netlist netlist_;
  circuit::NodeId vdd_ = 0;
  circuit::NodeId gnd_ = 0;
  std::vector<circuit::NodeId> pin_nodes_;
  circuit::NodeId output_node_ = 0;
  std::vector<circuit::SourceId> pin_sources_;
  circuit::SourceId output_source_ = 0;
  std::vector<double> seed_;
  circuit::SolverOptions solver_options_;
  /// Compiled form, created on first solveCompiled()/solveBatched().
  std::optional<circuit::SolverKernel> kernel_;

  /// The compiled kernel, built on first use.
  circuit::SolverKernel& compiledKernel();
  FixtureResult extractResult(circuit::Solution&& solution) const;
  [[noreturn]] void throwNonConvergence(const circuit::Solution& solution,
                                        const std::string& label = {}) const;
};

}  // namespace nanoleak::core
