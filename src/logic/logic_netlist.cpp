#include "logic/logic_netlist.h"

#include <algorithm>
#include <deque>

#include "util/error.h"

namespace nanoleak::logic {

NetId LogicNetlist::addNet(const std::string& name) {
  if (net_index_.find(name) != net_index_.end()) {
    throwError("LogicNetlist::addNet: duplicate net name '" + name + "'");
  }
  const NetId id = net_names_.size();
  net_names_.push_back(name);
  net_index_.emplace(name, id);
  driver_kind_.push_back(DriverKind::kUndriven);
  driver_gate_.push_back(0);
  fanout_.emplace_back();
  dff_load_count_.push_back(0);
  is_primary_input_.push_back(false);
  is_primary_output_.push_back(false);
  return id;
}

NetId LogicNetlist::getOrAddNet(const std::string& name) {
  const auto it = net_index_.find(name);
  if (it != net_index_.end()) {
    return it->second;
  }
  return addNet(name);
}

bool LogicNetlist::hasNet(const std::string& name) const {
  return net_index_.find(name) != net_index_.end();
}

NetId LogicNetlist::net(const std::string& name) const {
  const auto it = net_index_.find(name);
  if (it == net_index_.end()) {
    throwError("LogicNetlist::net: unknown net '" + name + "'");
  }
  return it->second;
}

void LogicNetlist::markPrimaryInput(NetId net) {
  require(net < netCount(), "markPrimaryInput: net out of range");
  if (driver_kind_[net] != DriverKind::kUndriven) {
    throwError("markPrimaryInput: net '" + net_names_[net] +
               "' already driven");
  }
  driver_kind_[net] = DriverKind::kPrimaryInput;
  if (!is_primary_input_[net]) {
    is_primary_input_[net] = true;
    primary_inputs_.push_back(net);
  }
}

void LogicNetlist::markPrimaryOutput(NetId net) {
  require(net < netCount(), "markPrimaryOutput: net out of range");
  if (!is_primary_output_[net]) {
    is_primary_output_[net] = true;
    primary_outputs_.push_back(net);
  }
}

GateId LogicNetlist::addGate(gates::GateKind kind, std::vector<NetId> inputs,
                             NetId output, std::string name) {
  require(gates::hasTopology(kind),
          "LogicNetlist::addGate: use addDff for flip-flops");
  if (inputs.size() != static_cast<std::size_t>(gates::inputCount(kind))) {
    throwError(std::string("LogicNetlist::addGate: wrong arity for ") +
               gates::toString(kind));
  }
  require(output < netCount(), "addGate: output net out of range");
  if (driver_kind_[output] != DriverKind::kUndriven) {
    throwError("addGate: net '" + net_names_[output] + "' already driven");
  }
  for (NetId in : inputs) {
    require(in < netCount(), "addGate: input net out of range");
  }
  const GateId id = gates_.size();
  if (name.empty()) {
    name = std::string(gates::toString(kind)) + "_" + std::to_string(id);
  }
  for (std::size_t pin = 0; pin < inputs.size(); ++pin) {
    fanout_[inputs[pin]].push_back(PinRef{id, static_cast<int>(pin)});
  }
  driver_kind_[output] = DriverKind::kGate;
  driver_gate_[output] = id;
  gates_.push_back(Gate{kind, std::move(inputs), output, std::move(name)});
  return id;
}

void LogicNetlist::addDff(NetId d, NetId q, std::string name) {
  require(d < netCount() && q < netCount(), "addDff: net out of range");
  if (driver_kind_[q] != DriverKind::kUndriven) {
    throwError("addDff: q net '" + net_names_[q] + "' already driven");
  }
  driver_kind_[q] = DriverKind::kDffOutput;
  ++dff_load_count_[d];
  if (name.empty()) {
    name = "DFF_" + std::to_string(dffs_.size());
  }
  dffs_.push_back(Dff{d, q, std::move(name)});
}

const Gate& LogicNetlist::gate(GateId id) const {
  require(id < gates_.size(), "LogicNetlist::gate: id out of range");
  return gates_[id];
}

const std::string& LogicNetlist::netName(NetId net) const {
  require(net < netCount(), "netName: net out of range");
  return net_names_[net];
}

DriverKind LogicNetlist::driverKind(NetId net) const {
  require(net < netCount(), "driverKind: net out of range");
  return driver_kind_[net];
}

GateId LogicNetlist::driverGate(NetId net) const {
  if (driverKind(net) != DriverKind::kGate) {
    throwError("driverGate: net '" + net_names_[net] + "' is not gate-driven");
  }
  return driver_gate_[net];
}

const std::vector<PinRef>& LogicNetlist::fanout(NetId net) const {
  require(net < netCount(), "fanout: net out of range");
  return fanout_[net];
}

int LogicNetlist::dffLoadCount(NetId net) const {
  require(net < netCount(), "dffLoadCount: net out of range");
  return dff_load_count_[net];
}

std::vector<NetId> LogicNetlist::sourceNets() const {
  std::vector<NetId> sources = primary_inputs_;
  for (const Dff& dff : dffs_) {
    sources.push_back(dff.q);
  }
  return sources;
}

std::vector<GateId> LogicNetlist::topologicalOrder() const {
  // Kahn's algorithm over gate -> gate edges implied by nets.
  std::vector<std::size_t> pending(gates_.size(), 0);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    for (NetId in : gates_[g].inputs) {
      if (driver_kind_[in] == DriverKind::kGate) {
        ++pending[g];
      }
    }
  }
  std::deque<GateId> ready;
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    if (pending[g] == 0) {
      ready.push_back(g);
    }
  }
  std::vector<GateId> order;
  order.reserve(gates_.size());
  while (!ready.empty()) {
    const GateId g = ready.front();
    ready.pop_front();
    order.push_back(g);
    for (const PinRef& pin : fanout_[gates_[g].output]) {
      if (--pending[pin.gate] == 0) {
        ready.push_back(pin.gate);
      }
    }
  }
  require(order.size() == gates_.size(),
          "topologicalOrder: combinational cycle detected");
  return order;
}

void LogicNetlist::validate() const {
  for (const Gate& g : gates_) {
    for (NetId in : g.inputs) {
      if (driver_kind_[in] == DriverKind::kUndriven) {
        throwError("validate: gate '" + g.name + "' reads undriven net '" +
                   net_names_[in] + "'");
      }
    }
  }
  for (const Dff& dff : dffs_) {
    if (driver_kind_[dff.d] == DriverKind::kUndriven) {
      throwError("validate: DFF '" + dff.name + "' reads undriven net '" +
                 net_names_[dff.d] + "'");
    }
  }
  for (NetId out : primary_outputs_) {
    if (driver_kind_[out] == DriverKind::kUndriven) {
      throwError("validate: primary output '" + net_names_[out] +
                 "' undriven");
    }
  }
  (void)topologicalOrder();  // throws on cycles
}

NetlistStats computeStats(const LogicNetlist& netlist) {
  NetlistStats stats;
  stats.gates = netlist.gateCount();
  stats.dffs = netlist.dffs().size();
  stats.primary_inputs = netlist.primaryInputs().size();
  stats.primary_outputs = netlist.primaryOutputs().size();
  stats.nets = netlist.netCount();

  std::size_t fanout_total = 0;
  std::size_t driven_nets = 0;
  for (NetId n = 0; n < netlist.netCount(); ++n) {
    const auto size = netlist.fanout(n).size();
    stats.max_fanout = std::max(stats.max_fanout, static_cast<int>(size));
    if (netlist.driverKind(n) != DriverKind::kUndriven) {
      fanout_total += size;
      ++driven_nets;
    }
  }
  stats.mean_fanout = driven_nets == 0
                          ? 0.0
                          : static_cast<double>(fanout_total) /
                                static_cast<double>(driven_nets);

  // Depth: longest gate chain.
  std::vector<int> depth(netlist.gateCount(), 1);
  for (GateId g : netlist.topologicalOrder()) {
    for (NetId in : netlist.gate(g).inputs) {
      if (netlist.driverKind(in) == DriverKind::kGate) {
        depth[g] = std::max(depth[g], depth[netlist.driverGate(in)] + 1);
      }
    }
    stats.logic_depth = std::max(stats.logic_depth, depth[g]);
  }
  return stats;
}

}  // namespace nanoleak::logic
