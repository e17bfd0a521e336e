#include "core/golden.h"

#include <array>
#include <map>
#include <string>
#include <utility>

#include "circuit/dc_solver.h"
#include "circuit/leakage_meter.h"
#include "logic/expander.h"
#include "logic/logic_sim.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace nanoleak::core {

GoldenSolver::GoldenSolver(const logic::LogicNetlist& netlist,
                           const device::Technology& technology,
                           const gates::VariationProvider& variation)
    : netlist_(netlist),
      technology_(technology),
      variation_(variation),
      sim_(netlist) {}

GoldenResult GoldenSolver::solve(const std::vector<bool>& source_values) {
  const double vdd = technology_.vdd;

  if (!expanded_) {
    // First pattern: full expansion + kernel compile. Seeds and fixed
    // bindings come out exactly as the historical expand-per-call path
    // produced them, so this solve is bit-identical to it.
    expanded_ = logic::expandToTransistors(netlist_, technology_,
                                           source_values, variation_);
    circuit::SolverOptions options;
    options.temperature_k = technology_.temperature_k;
    options.bracket_lo = -0.3;
    options.bracket_hi = vdd + 0.3;
    kernel_.emplace(expanded_->netlist, options);
    static const obs::Counter cold_solves =
        obs::counter("golden.cold_solves");
    cold_solves.increment();
    const circuit::Solution solution =
        kernel_->solve(expanded_->seed, expanded_->sweep_order);
    if (solution.converged) {
      warm_ = solution.voltages;
      prev_values_ = expanded_->net_values;
    }
    return extract(solution);
  }

  // Re-solve: re-bind the pattern-dependent fixed voltages only.
  std::vector<bool> values = sim_.simulate(source_values);
  for (logic::NetId net = 0; net < netlist_.netCount(); ++net) {
    if (netlist_.driverKind(net) == logic::DriverKind::kPrimaryInput) {
      kernel_->setFixedVoltage(expanded_->net_node[net],
                               values[net] ? vdd : 0.0);
    }
  }
  const auto& dffs = netlist_.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const bool q_value = values[dffs[i].q];
    kernel_->setFixedVoltage(expanded_->dff_qsrc[i],
                             q_value ? 0.0 : vdd);  // inverted
  }

  // Cold-equivalent seed for this pattern: exactly what a fresh expansion
  // would have produced (net logic levels, recomputed stage-level seeds,
  // pattern-independent stack seeds). Serves two roles: the cluster
  // classification guess, and the seed for "dirty" regions below.
  const std::vector<double> cold = coldSeed(values);

  // Warm continuation where it helps, cold where it does not: gates none
  // of whose pins changed keep the previous operating point (already
  // converged there); flipped nets and the internals of dirty gates take
  // the cold seed - a stale stack voltage near the wrong rail costs far
  // more sweeps than a cold start.
  std::vector<double> seed = warm_.empty() ? cold : warm_;
  if (!warm_.empty()) {
    for (logic::NetId net = 0; net < netlist_.netCount(); ++net) {
      if (values[net] != prev_values_[net]) {
        seed[expanded_->net_node[net]] = cold[expanded_->net_node[net]];
      }
    }
    const auto& gates_list = netlist_.gates();
    std::vector<bool> dirty(gates_list.size(), false);
    for (std::size_t g = 0; g < gates_list.size(); ++g) {
      bool changed = values[gates_list[g].output] !=
                     prev_values_[gates_list[g].output];
      for (logic::NetId input : gates_list[g].inputs) {
        changed = changed || values[input] != prev_values_[input];
      }
      dirty[g] = changed;
    }
    for (const logic::ExpandedCircuit::InternalSeed& s :
         expanded_->internal_seeds) {
      if (s.gate != logic::ExpandedCircuit::InternalSeed::kNoGate &&
          dirty[s.gate]) {
        seed[s.node] = cold[s.node];
      }
    }
  }

  static const obs::Counter warm_solves = obs::counter("golden.warm_solves");
  static const obs::Counter cold_reseeds = obs::counter("golden.cold_reseeds");
  (warm_.empty() ? cold_reseeds : warm_solves).increment();
  const circuit::Solution solution =
      kernel_->solve(seed, expanded_->sweep_order, &cold);
  // warm_/prev_values_ advance only on success: after a ConvergenceError
  // they still describe the last solved pattern together, so a later
  // solve() seeds consistently.
  if (solution.converged) {
    warm_ = solution.voltages;
    prev_values_ = std::move(values);
  }
  return extract(solution);
}

std::vector<double> GoldenSolver::coldSeed(
    const std::vector<bool>& values) const {
  const double vdd = technology_.vdd;
  std::vector<double> seed(expanded_->netlist.nodeCount(), 0.5 * vdd);
  seed[expanded_->vdd] = vdd;
  seed[expanded_->gnd] = 0.0;
  for (logic::NetId net = 0; net < netlist_.netCount(); ++net) {
    seed[expanded_->net_node[net]] = values[net] ? vdd : 0.0;
  }
  // Internal seeds: stage-level entries are re-evaluated at this pattern's
  // pin values; stack entries keep their recorded (pattern-independent)
  // voltage. Entries are grouped per gate, so stage levels are computed
  // once per gate.
  std::size_t last_gate = logic::ExpandedCircuit::InternalSeed::kNoGate;
  std::vector<bool> stage_levels;
  std::array<bool, 8> pins{};
  for (const logic::ExpandedCircuit::InternalSeed& s :
       expanded_->internal_seeds) {
    if (s.stage < 0 ||
        s.gate == logic::ExpandedCircuit::InternalSeed::kNoGate) {
      seed[s.node] = s.voltage;
      continue;
    }
    if (s.gate != last_gate) {
      const logic::Gate& gate = netlist_.gates()[s.gate];
      for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
        pins[pin] = values[gate.inputs[pin]];
      }
      stage_levels = gates::evaluateStages(
          gate.kind,
          std::span<const bool>(pins.data(), gate.inputs.size()));
      last_gate = s.gate;
    }
    seed[s.node] =
        stage_levels[static_cast<std::size_t>(s.stage)] ? vdd : 0.0;
  }
  return seed;
}

GoldenResult GoldenSolver::extract(const circuit::Solution& solution) const {
  if (!solution.converged) {
    std::string message = "goldenLeakage: full-circuit DC solve failed";
    const std::string detail =
        circuit::nonConvergenceDetail(expanded_->netlist, solution);
    if (!detail.empty()) {
      message += " (" + detail + ")";
    }
    throw ConvergenceError(message);
  }

  const device::Environment env{technology_.temperature_k};
  GoldenResult result;
  result.sweeps = solution.sweeps;
  result.node_count = expanded_->netlist.nodeCount();
  result.node_solves = solution.node_solves;
  auto by_owner = circuit::leakageByOwner(expanded_->netlist,
                                          solution.voltages, env,
                                          expanded_->gate_count);
  by_owner.pop_back();  // drop the kNoOwner (DFF boundary) bucket
  result.per_gate = std::move(by_owner);
  for (const device::LeakageBreakdown& gate : result.per_gate) {
    result.total += gate;
  }
  return result;
}

GoldenResult goldenLeakage(const logic::LogicNetlist& netlist,
                           const device::Technology& technology,
                           const std::vector<bool>& source_values,
                           const gates::VariationProvider& variation) {
  GoldenSolver solver(netlist, technology, variation);
  return solver.solve(source_values);
}

device::LeakageBreakdown isolatedSumLeakage(
    const logic::LogicNetlist& netlist, const device::Technology& technology,
    const std::vector<bool>& source_values) {
  const logic::LogicSimulator sim(netlist);
  const std::vector<bool> values = sim.simulate(source_values);

  std::map<std::pair<gates::GateKind, std::size_t>, device::LeakageBreakdown>
      memo;
  device::LeakageBreakdown total;
  std::vector<bool> pins;
  for (const logic::Gate& gate : netlist.gates()) {
    pins.assign(gate.inputs.size(), false);
    std::size_t index = 0;
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      pins[pin] = values[gate.inputs[pin]];
      if (pins[pin]) {
        index |= (std::size_t{1} << pin);
      }
    }
    const auto key = std::make_pair(gate.kind, index);
    auto it = memo.find(key);
    if (it == memo.end()) {
      std::array<bool, 8> flat{};
      for (std::size_t pin = 0; pin < pins.size(); ++pin) {
        flat[pin] = pins[pin];
      }
      const device::LeakageBreakdown leak = gates::isolatedGateLeakage(
          gate.kind, std::span<const bool>(flat.data(), pins.size()),
          technology);
      it = memo.emplace(key, leak).first;
    }
    total += it->second;
  }
  return total;
}

}  // namespace nanoleak::core
