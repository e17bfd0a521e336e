#include "gates/gate_builder.h"

#include <array>
#include <string>

#include "circuit/dc_solver.h"
#include "circuit/leakage_meter.h"
#include "util/error.h"

namespace nanoleak::gates {

using circuit::NodeId;

GateNetlistBuilder::GateNetlistBuilder(circuit::Netlist& netlist,
                                       const device::Technology& technology,
                                       NodeId vdd, NodeId gnd)
    : netlist_(netlist), technology_(technology), vdd_(vdd), gnd_(gnd) {}

device::DeviceVariation GateNetlistBuilder::nextVariation(
    const VariationProvider& variation) const {
  return variation ? variation() : device::DeviceVariation{};
}

NodeId GateNetlistBuilder::signalNode(
    const SignalRef& signal, std::span<const NodeId> inputs,
    std::span<const NodeId> stage_nodes) const {
  const auto index = static_cast<std::size_t>(signal.index);
  if (signal.source == SignalRef::Source::kInput) {
    require(index < inputs.size(),
            "GateNetlistBuilder: input signal index out of range");
    return inputs[index];
  }
  require(index < stage_nodes.size(),
          "GateNetlistBuilder: internal signal index out of range");
  return stage_nodes[index];
}

void GateNetlistBuilder::buildNetwork(
    const SwitchExpr& expr, NodeId a, NodeId b, bool pull_up,
    std::span<const NodeId> inputs, std::span<const NodeId> stage_nodes,
    int owner, int series_mult, double rail_voltage,
    const VariationProvider& variation) {
  switch (expr.kind) {
    case SwitchExpr::Kind::kLeaf: {
      const device::DeviceParams& params =
          pull_up ? technology_.pmos : technology_.nmos;
      const double unit = pull_up
                              ? technology_.unit_width_n * technology_.beta_ratio
                              : technology_.unit_width_n;
      device::Mosfet mosfet(params, unit * series_mult,
                            nextVariation(variation));
      const NodeId gate = signalNode(expr.signal, inputs, stage_nodes);
      const NodeId bulk = pull_up ? vdd_ : gnd_;
      netlist_.addMosfet(std::move(mosfet), gate, /*drain=*/a, /*source=*/b,
                         bulk, owner);
      return;
    }
    case SwitchExpr::Kind::kSeries: {
      const auto n = expr.children.size();
      // Chain internal nodes between consecutive children; stack-effect
      // nodes settle near the rail, so seed them just off it.
      NodeId prev = a;
      for (std::size_t i = 0; i < n; ++i) {
        NodeId next = b;
        if (i + 1 < n) {
          next = netlist_.addNode("stack");
          const double seed =
              pull_up ? rail_voltage - 0.08 * rail_voltage
                      : 0.08 * rail_voltage;
          seeds_.emplace_back(next, seed);
          seed_stages_.push_back(-1);
        }
        buildNetwork(expr.children[i], prev, next, pull_up, inputs,
                     stage_nodes, owner,
                     series_mult * static_cast<int>(n), rail_voltage,
                     variation);
        prev = next;
      }
      return;
    }
    case SwitchExpr::Kind::kParallel: {
      for (const SwitchExpr& child : expr.children) {
        buildNetwork(child, a, b, pull_up, inputs, stage_nodes, owner,
                     series_mult, rail_voltage, variation);
      }
      return;
    }
  }
}

void GateNetlistBuilder::instantiate(GateKind kind,
                                     std::span<const NodeId> inputs,
                                     NodeId output, int owner,
                                     std::span<const bool> input_values,
                                     const VariationProvider& variation) {
  const CellTopology& cell = cellTopology(kind);
  if (inputs.size() != static_cast<std::size_t>(cell.num_inputs)) {
    throwError(
        std::string("GateNetlistBuilder::instantiate: wrong arity for ") +
        toString(kind));
  }
  require(input_values.empty() || input_values.size() == inputs.size(),
          "GateNetlistBuilder::instantiate: input_values arity mismatch");

  const double vdd_volts = technology_.vdd;

  // Stage output nodes: internal for all but the last stage.
  std::vector<NodeId> stage_nodes(cell.stages.size());
  for (std::size_t i = 0; i < cell.stages.size(); ++i) {
    stage_nodes[i] = (i + 1 == cell.stages.size())
                         ? output
                         : netlist_.addNode(std::string(toString(kind)) +
                                            ".s" + std::to_string(i));
  }

  // Logic-level seeds for internal stage outputs.
  if (!input_values.empty()) {
    const std::vector<bool> levels = evaluateStages(kind, input_values);
    for (std::size_t i = 0; i + 1 < cell.stages.size(); ++i) {
      seeds_.emplace_back(stage_nodes[i], levels[i] ? vdd_volts : 0.0);
      seed_stages_.push_back(static_cast<int>(i));
    }
  }

  for (std::size_t i = 0; i < cell.stages.size(); ++i) {
    const SwitchExpr& pd = cell.stages[i].pull_down;
    const SwitchExpr pu = pd.dual();
    // Only internal signals produced by earlier stages may be referenced.
    const std::span<const NodeId> visible(stage_nodes.data(), i);
    buildNetwork(pd, stage_nodes[i], gnd_, /*pull_up=*/false, inputs, visible,
                 owner, 1, vdd_volts, variation);
    buildNetwork(pu, stage_nodes[i], vdd_, /*pull_up=*/true, inputs, visible,
                 owner, 1, vdd_volts, variation);
  }
}

device::LeakageBreakdown isolatedGateLeakage(
    GateKind kind, std::span<const bool> input_values,
    const device::Technology& technology) {
  circuit::Netlist netlist;
  const NodeId vdd = netlist.addNode("VDD");
  const NodeId gnd = netlist.addNode("GND");
  netlist.fixVoltage(vdd, technology.vdd);
  netlist.fixVoltage(gnd, 0.0);

  std::vector<NodeId> inputs;
  for (std::size_t i = 0; i < input_values.size(); ++i) {
    const NodeId node = netlist.addNode("in" + std::to_string(i));
    netlist.fixVoltage(node, input_values[i] ? technology.vdd : 0.0);
    inputs.push_back(node);
  }
  const NodeId output = netlist.addNode("out");

  GateNetlistBuilder builder(netlist, technology, vdd, gnd);
  builder.instantiate(kind, inputs, output, /*owner=*/0, input_values);

  std::vector<double> guess(netlist.nodeCount(), 0.0);
  const bool out_level = evaluateGate(kind, input_values);
  guess[output] = out_level ? technology.vdd : 0.0;
  for (const auto& [node, voltage] : builder.seeds()) {
    guess[node] = voltage;
  }

  circuit::SolverOptions options;
  options.temperature_k = technology.temperature_k;
  options.bracket_lo = -0.3;
  options.bracket_hi = technology.vdd + 0.3;
  circuit::DcSolver solver(options);
  const circuit::Solution solution = solver.solve(netlist, guess);
  require(solution.converged, "isolatedGateLeakage: DC solve did not converge");

  const device::Environment env{technology.temperature_k};
  return circuit::totalLeakage(netlist, solution.voltages, env);
}

}  // namespace nanoleak::gates
