#include "circuit/dc_solver.h"

#include <cstddef>
#include <vector>

#include "circuit/solver_core.h"
#include "util/error.h"

namespace nanoleak::circuit {
namespace {

/// Which terminal of a device touches a node.
enum class Terminal { kGate, kDrain, kSource, kBulk };

struct Incidence {
  std::size_t device;
  Terminal terminal;
};

/// Per-node incidence lists, built once per solve.
std::vector<std::vector<Incidence>> buildIncidence(const Netlist& netlist) {
  std::vector<std::vector<Incidence>> incidence(netlist.nodeCount());
  const auto& devices = netlist.devices();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    incidence[devices[i].gate].push_back({i, Terminal::kGate});
    incidence[devices[i].drain].push_back({i, Terminal::kDrain});
    incidence[devices[i].source].push_back({i, Terminal::kSource});
    incidence[devices[i].bulk].push_back({i, Terminal::kBulk});
  }
  return incidence;
}

double terminalCurrent(const device::TerminalCurrents& currents,
                       Terminal terminal) {
  switch (terminal) {
    case Terminal::kGate:
      return currents.gate;
    case Terminal::kDrain:
      return currents.drain;
    case Terminal::kSource:
      return currents.source;
    case Terminal::kBulk:
      return currents.bulk;
  }
  return 0.0;
}

/// Adapts a Netlist (devices evaluated through Mosfet on every call) to
/// the solver_core Evaluator concept.
struct NetlistEvaluator {
  const Netlist& netlist;
  const std::vector<std::vector<Incidence>>& incidence;
  const SolverOptions& options;

  std::size_t nodeCount() const { return netlist.nodeCount(); }
  bool isFixed(NodeId node) const { return netlist.isFixed(node); }
  double fixedVoltage(NodeId node) const { return netlist.fixedVoltage(node); }

  /// Net current leaving `node` given the voltage vector.
  double residual(const std::vector<double>& voltages, NodeId node) const {
    const device::Environment env{options.temperature_k};
    double residual = options.gmin * voltages[node];
    for (const Incidence& inc : incidence[node]) {
      const DeviceInstance& dev = netlist.devices()[inc.device];
      const device::BiasPoint bias{voltages[dev.gate], voltages[dev.drain],
                                   voltages[dev.source], voltages[dev.bulk]};
      residual += terminalCurrent(dev.mosfet.currents(bias, env), inc.terminal);
    }
    return residual - netlist.injectedCurrent(node);
  }

  template <typename F>
  void forOnPairs(const std::vector<double>& voltages, F&& f) const {
    const device::Environment env{options.temperature_k};
    for (const DeviceInstance& dev : netlist.devices()) {
      if (netlist.isFixed(dev.drain) || netlist.isFixed(dev.source)) {
        continue;
      }
      const device::BiasPoint bias{voltages[dev.gate], voltages[dev.drain],
                                   voltages[dev.source], voltages[dev.bulk]};
      if (!dev.mosfet.isOff(bias, env)) {
        f(dev.drain, dev.source);
      }
    }
  }
};

}  // namespace

std::string nonConvergenceDetail(const Netlist& netlist,
                                 const Solution& solution) {
  if (solution.max_residual_node >= netlist.nodeCount()) {
    return {};
  }
  return "node " + netlist.nodeName(solution.max_residual_node) +
         ", |residual| = " + std::to_string(solution.max_residual) + " A";
}

DcSolver::DcSolver(SolverOptions options) : options_(options) {
  require(options_.bracket_hi > options_.bracket_lo,
          "DcSolver: bracket_hi must exceed bracket_lo");
}

double DcSolver::nodeResidual(const Netlist& netlist,
                              const std::vector<double>& voltages, NodeId node,
                              const SolverOptions& options) {
  const auto incidence = buildIncidence(netlist);
  return NetlistEvaluator{netlist, incidence, options}.residual(voltages,
                                                                node);
}

Solution DcSolver::solve(const Netlist& netlist,
                         const std::vector<double>& initial_guess,
                         const std::vector<NodeId>& sweep_order) const {
  const auto incidence = buildIncidence(netlist);
  return detail::solveRecorded(NetlistEvaluator{netlist, incidence, options_},
                               options_, initial_guess, sweep_order);
}

}  // namespace nanoleak::circuit
