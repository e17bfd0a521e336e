#include "core/loading_fixture.h"

#include <array>
#include <string>
#include <utility>

#include "circuit/leakage_meter.h"
#include "util/error.h"

namespace nanoleak::core {

using circuit::NodeId;

LoadingFixture::LoadingFixture(gates::GateKind kind,
                               std::vector<bool> input_vector,
                               const device::Technology& technology)
    : kind_(kind),
      input_vector_(std::move(input_vector)),
      technology_(technology) {
  require(gates::hasTopology(kind),
          "LoadingFixture: gate kind has no topology");
  require(input_vector_.size() ==
              static_cast<std::size_t>(gates::inputCount(kind)),
          "LoadingFixture: input vector arity mismatch");

  vdd_ = netlist_.addNode("VDD");
  gnd_ = netlist_.addNode("GND");
  netlist_.fixVoltage(vdd_, technology_.vdd);
  netlist_.fixVoltage(gnd_, 0.0);

  gates::GateNetlistBuilder builder(netlist_, technology_, vdd_, gnd_);

  // Reference driver per pin: an inverter whose (ideal) input is the
  // complement of the pin level, so the pin net carries the right level
  // through a realistic pull-up/pull-down resistance (the paper's D1).
  for (std::size_t pin = 0; pin < input_vector_.size(); ++pin) {
    const bool level = input_vector_[pin];
    const NodeId drv_in = netlist_.addNode("drv_in" + std::to_string(pin));
    netlist_.fixVoltage(drv_in, level ? 0.0 : technology_.vdd);
    const NodeId pin_node = netlist_.addNode("pin" + std::to_string(pin));
    pin_nodes_.push_back(pin_node);
    const std::array<NodeId, 1> ins{drv_in};
    const std::array<bool, 1> in_vals{!level};
    builder.instantiate(gates::GateKind::kInv, ins, pin_node,
                        kDriverOwnerBase + static_cast<int>(pin), in_vals,
                        {});
    pin_sources_.push_back(netlist_.addCurrentSource(pin_node, 0.0));
  }

  output_node_ = netlist_.addNode("out");
  output_source_ = netlist_.addCurrentSource(output_node_, 0.0);

  // Gate under test.
  std::array<bool, 8> vals{};
  for (std::size_t i = 0; i < input_vector_.size(); ++i) {
    vals[i] = input_vector_[i];
  }
  builder.instantiate(
      kind_, pin_nodes_, output_node_, kGateUnderTest,
      std::span<const bool>(vals.data(), input_vector_.size()), {});

  // Seeds: pins at their levels, output at the gate's logic output.
  seed_.assign(netlist_.nodeCount(), 0.5 * technology_.vdd);
  seed_[vdd_] = technology_.vdd;
  seed_[gnd_] = 0.0;
  for (std::size_t pin = 0; pin < pin_nodes_.size(); ++pin) {
    seed_[pin_nodes_[pin]] = input_vector_[pin] ? technology_.vdd : 0.0;
  }
  const bool out_level = gates::evaluateGate(
      kind_, std::span<const bool>(vals.data(), input_vector_.size()));
  seed_[output_node_] = out_level ? technology_.vdd : 0.0;
  for (const auto& [node, voltage] : builder.seeds()) {
    seed_[node] = voltage;
  }

  solver_options_.temperature_k = technology_.temperature_k;
  solver_options_.bracket_lo = -0.3;
  solver_options_.bracket_hi = technology_.vdd + 0.3;
}

void LoadingFixture::setInputLoading(double amps) {
  const double share = amps / static_cast<double>(pin_sources_.size());
  for (circuit::SourceId source : pin_sources_) {
    netlist_.setCurrentSource(source, share);
  }
}

void LoadingFixture::setPinLoading(int pin, double amps) {
  require(pin >= 0 && static_cast<std::size_t>(pin) < pin_sources_.size(),
          "LoadingFixture::setPinLoading: pin out of range");
  netlist_.setCurrentSource(pin_sources_[static_cast<std::size_t>(pin)],
                            amps);
}

void LoadingFixture::setOutputLoading(double amps) {
  netlist_.setCurrentSource(output_source_, amps);
}

FixtureResult LoadingFixture::solve() const {
  const circuit::DcSolver solver(solver_options_);
  circuit::Solution solution = solver.solve(netlist_, seed_);
  if (!solution.converged) {
    throwNonConvergence(solution);
  }
  return extractResult(std::move(solution));
}

circuit::SolverKernel& LoadingFixture::compiledKernel() {
  if (!kernel_) {
    kernel_.emplace(netlist_, solver_options_);
  }
  return *kernel_;
}

FixtureResult LoadingFixture::solveCompiled(
    const std::vector<double>* warm_seed) {
  circuit::SolverKernel& kernel = compiledKernel();
  // Re-bind the loading currents mutated through the netlist setters since
  // the last solve (compile happens once; sources re-bind every solve).
  for (std::size_t s = 0; s < netlist_.sourceCount(); ++s) {
    kernel.setSource(s, netlist_.sources()[s].amps);
  }
  const bool warm = warm_seed != nullptr && !warm_seed->empty();
  circuit::Solution solution =
      kernel.solve(warm ? *warm_seed : seed_, {}, warm ? &seed_ : nullptr);
  if (!solution.converged) {
    throwNonConvergence(solution);
  }
  return extractResult(std::move(solution));
}

std::vector<FixtureResult> LoadingFixture::solveBatched(
    std::span<const FixtureBatchPoint> points) {
  require(!points.empty() && points.size() <= kBatchLanes,
          "LoadingFixture::solveBatched: point count must be in [1, lanes]");
  std::vector<std::vector<double>> amps(points.size());
  std::vector<circuit::SolverKernel::LaneRequest> requests(points.size());
  for (std::size_t lane = 0; lane < points.size(); ++lane) {
    const FixtureBatchPoint& point = points[lane];
    require(point.pin_loading.size() == pin_sources_.size(),
            "LoadingFixture::solveBatched: pin_loading arity mismatch");
    amps[lane].resize(netlist_.sourceCount());
    for (std::size_t pin = 0; pin < pin_sources_.size(); ++pin) {
      amps[lane][pin_sources_[pin]] = point.pin_loading[pin];
    }
    amps[lane][output_source_] = point.output_loading;
    const bool warm = point.warm_seed != nullptr && !point.warm_seed->empty();
    requests[lane].source_amps = amps[lane];
    requests[lane].initial_guess = warm ? point.warm_seed : &seed_;
    requests[lane].cluster_guess = warm ? &seed_ : nullptr;
  }
  std::vector<circuit::Solution> solutions =
      compiledKernel().solveLanes(requests);
  std::vector<FixtureResult> results;
  results.reserve(points.size());
  for (std::size_t lane = 0; lane < points.size(); ++lane) {
    if (!solutions[lane].converged) {
      throwNonConvergence(solutions[lane],
                          "grid point (" +
                              std::to_string(points[lane].grid_row) + "," +
                              std::to_string(points[lane].grid_col) + ")");
    }
    results.push_back(extractResult(std::move(solutions[lane])));
  }
  return results;
}

void LoadingFixture::rebindTemperature(double temperature_k) {
  technology_.temperature_k = temperature_k;
  solver_options_.temperature_k = temperature_k;
  if (kernel_) {
    kernel_->setOptions(solver_options_);
  }
}

void LoadingFixture::throwNonConvergence(const circuit::Solution& solution,
                                         const std::string& label) const {
  std::string message = "LoadingFixture: DC solve did not converge (" +
                        std::string(gates::toString(kind_));
  if (!label.empty()) {
    message += ", " + label;
  }
  const std::string detail = circuit::nonConvergenceDetail(netlist_, solution);
  if (!detail.empty()) {
    message += ", " + detail;
  }
  throw ConvergenceError(message + ")");
}

FixtureResult LoadingFixture::extractResult(
    circuit::Solution&& solution) const {
  const device::Environment env{technology_.temperature_k};
  FixtureResult result;
  result.sweeps = solution.sweeps;
  const auto by_owner = circuit::leakageByOwner(
      netlist_, solution.voltages, env, /*owner_count=*/1);
  result.leakage = by_owner[kGateUnderTest];

  result.output_voltage = solution.voltages[output_node_];
  result.pin_voltages.reserve(pin_nodes_.size());
  result.pin_currents_into_net.assign(pin_nodes_.size(), 0.0);
  for (std::size_t pin = 0; pin < pin_nodes_.size(); ++pin) {
    result.pin_voltages.push_back(solution.voltages[pin_nodes_[pin]]);
  }

  // Pin tunneling currents of the gate under test: current a pin injects
  // into its net is minus the current flowing from the net into the
  // device gates.
  for (const circuit::DeviceInstance& dev : netlist_.devices()) {
    if (dev.owner != kGateUnderTest) {
      continue;
    }
    for (std::size_t pin = 0; pin < pin_nodes_.size(); ++pin) {
      if (dev.gate == pin_nodes_[pin]) {
        const device::BiasPoint bias{
            solution.voltages[dev.gate], solution.voltages[dev.drain],
            solution.voltages[dev.source], solution.voltages[dev.bulk]};
        result.pin_currents_into_net[pin] -=
            dev.mosfet.currents(bias, env).gate;
      }
    }
  }
  result.voltages = std::move(solution.voltages);
  return result;
}

}  // namespace nanoleak::core
