#include "search/ternary.h"

#include <algorithm>

#include "util/error.h"

namespace nanoleak::search {

using logic::GateId;
using logic::NetId;

TernaryPropagator::TernaryPropagator(const logic::LogicNetlist& netlist)
    : netlist_(netlist), sources_(netlist.sourceNets()) {
  value_.assign(netlist.netCount(), Ternary::kUnknown);
  truth_.resize(netlist.gateCount());
  topo_pos_.assign(netlist.gateCount(), 0);
  queued_.assign(netlist.gateCount(), 0);
  topo_gate_ = netlist.topologicalOrder();
  for (std::size_t i = 0; i < topo_gate_.size(); ++i) {
    topo_pos_[topo_gate_[i]] = i;
  }
  for (GateId g = 0; g < netlist.gateCount(); ++g) {
    truth_[g] = gates::truthTable(netlist.gate(g).kind);
  }
  trail_.reserve(netlist.netCount());
  level_start_.reserve(sources_.size());
}

void TernaryPropagator::enqueueFanout(NetId net) {
  for (const logic::PinRef& ref : netlist_.fanout(net)) {
    if (queued_[ref.gate] == 0) {
      queued_[ref.gate] = 1;
      heap_.push_back(topo_pos_[ref.gate]);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  }
}

std::uint32_t TernaryPropagator::possibleVectors(GateId g) const {
  const logic::Gate& gate = netlist_.gate(g);
  std::uint32_t known_mask = 0;
  std::uint32_t known_vals = 0;
  for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
    const Ternary t = value_[gate.inputs[p]];
    if (t != Ternary::kUnknown) {
      known_mask |= 1u << p;
      if (t == Ternary::kTrue) {
        known_vals |= 1u << p;
      }
    }
  }
  const std::uint32_t all = (1u << gate.inputs.size()) - 1u;
  std::uint32_t possible = 0;
  // Enumerate completions of the unknown pins: walk every subset of
  // ~known_mask (within the pin width) via the standard subset trick.
  const std::uint32_t free_mask = all & ~known_mask;
  std::uint32_t sub = 0;
  while (true) {
    possible |= 1u << (known_vals | sub);
    if (sub == free_mask) {
      break;
    }
    sub = (sub - free_mask) & free_mask;
  }
  return possible;
}

void TernaryPropagator::evaluateGate(GateId g) {
  const logic::Gate& gate = netlist_.gate(g);
  if (value_[gate.output] != Ternary::kUnknown) {
    return;  // Already implied; monotone, so it cannot change.
  }
  const std::uint32_t possible = possibleVectors(g);
  const std::uint32_t truth = truth_[g];
  const bool can_be_true = (truth & possible) != 0;
  const bool can_be_false = (~truth & possible) != 0;
  if (can_be_true && can_be_false) {
    return;  // Output still undetermined.
  }
  value_[gate.output] = can_be_true ? Ternary::kTrue : Ternary::kFalse;
  trail_.push_back(gate.output);
  enqueueFanout(gate.output);
}

void TernaryPropagator::assign(std::size_t s, bool v) {
  require(s < sources_.size(), "TernaryPropagator: source index out of range");
  const NetId net = sources_[s];
  require(value_[net] == Ternary::kUnknown,
          "TernaryPropagator: source already assigned");
  level_start_.push_back(trail_.size());
  value_[net] = v ? Ternary::kTrue : Ternary::kFalse;
  trail_.push_back(net);
  enqueueFanout(net);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::size_t pos = heap_.back();
    heap_.pop_back();
    const GateId g = topo_gate_[pos];
    queued_[g] = 0;
    evaluateGate(g);
  }
}

void TernaryPropagator::backtrack() {
  require(!level_start_.empty(), "TernaryPropagator: no level to backtrack");
  const std::size_t start = level_start_.back();
  level_start_.pop_back();
  while (trail_.size() > start) {
    value_[trail_.back()] = Ternary::kUnknown;
    trail_.pop_back();
  }
}

std::span<const NetId> TernaryPropagator::lastImplied() const {
  require(!level_start_.empty(), "TernaryPropagator: no open level");
  const std::size_t start = level_start_.back();
  return std::span<const NetId>(trail_.data() + start, trail_.size() - start);
}

}  // namespace nanoleak::search
