#include "circuit/netlist.h"

#include <utility>

#include "util/error.h"

namespace nanoleak::circuit {

NodeId Netlist::addNode(std::string name) {
  node_names_.push_back(std::move(name));
  fixed_.push_back(false);
  fixed_voltage_.push_back(0.0);
  return node_names_.size() - 1;
}

void Netlist::checkNode(NodeId node, const char* context) const {
  if (node >= node_names_.size()) {
    throwError(std::string(context) + ": node id out of range");
  }
}

void Netlist::fixVoltage(NodeId node, double volts) {
  checkNode(node, "Netlist::fixVoltage");
  fixed_[node] = true;
  fixed_voltage_[node] = volts;
}

bool Netlist::isFixed(NodeId node) const {
  checkNode(node, "Netlist::isFixed");
  return fixed_[node];
}

double Netlist::fixedVoltage(NodeId node) const {
  checkNode(node, "Netlist::fixedVoltage");
  require(fixed_[node], "Netlist::fixedVoltage: node is not fixed");
  return fixed_voltage_[node];
}

DeviceId Netlist::addMosfet(device::Mosfet mosfet, NodeId gate, NodeId drain,
                            NodeId source, NodeId bulk, int owner) {
  checkNode(gate, "Netlist::addMosfet(gate)");
  checkNode(drain, "Netlist::addMosfet(drain)");
  checkNode(source, "Netlist::addMosfet(source)");
  checkNode(bulk, "Netlist::addMosfet(bulk)");
  devices_.push_back(
      DeviceInstance{std::move(mosfet), gate, drain, source, bulk, owner});
  return devices_.size() - 1;
}

SourceId Netlist::addCurrentSource(NodeId node, double amps) {
  checkNode(node, "Netlist::addCurrentSource");
  sources_.push_back(CurrentSource{node, amps});
  return sources_.size() - 1;
}

void Netlist::setCurrentSource(SourceId source, double amps) {
  require(source < sources_.size(),
          "Netlist::setCurrentSource: source id out of range");
  sources_[source].amps = amps;
}

const std::string& Netlist::nodeName(NodeId node) const {
  checkNode(node, "Netlist::nodeName");
  return node_names_[node];
}

double Netlist::injectedCurrent(NodeId node) const {
  checkNode(node, "Netlist::injectedCurrent");
  double total = 0.0;
  for (const CurrentSource& source : sources_) {
    if (source.node == node) {
      total += source.amps;
    }
  }
  return total;
}

}  // namespace nanoleak::circuit
