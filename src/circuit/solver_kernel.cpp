#include "circuit/solver_kernel.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "circuit/solver_core.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace nanoleak::circuit {

/// The solver_core Evaluator of a SolverKernel with one set of per-node
/// injected currents, at value type T: double for solve(),
/// util::Lanes<W> for solveLanes() (voltages and currents [node][lane]).
template <typename T>
struct KernelEvaluator {
  const SolverKernel& k;
  const std::vector<T>& injected;

  std::size_t nodeCount() const { return k.nodeCount(); }
  bool isFixed(NodeId node) const { return k.fixed_[node]; }
  double fixedVoltage(NodeId node) const { return k.fixed_voltage_[node]; }

  /// KCL residual at `node`, accumulated over the CSR incidence in
  /// DcSolver's incidence order (part of the bit-identity contract).
  T residual(const std::vector<T>& v, NodeId node) const {
    T residual = T(k.options_.gmin) * v[node];
    for (std::size_t e = k.incidence_offset_[node];
         e < k.incidence_offset_[node + 1]; ++e) {
      const std::size_t d = k.incidence_[e].device;
      const device::BasicBiasPoint<T> bias{v[k.gate_[d]], v[k.drain_[d]],
                                           v[k.source_[d]], v[k.bulk_[d]]};
      residual = residual + device::compiledTerminalCurrent(
                                k.coeffs_[d], bias,
                                static_cast<device::CompiledTerminal>(
                                    k.incidence_[e].terminal));
    }
    return residual - injected[node];
  }

  template <typename F>
  void forOnPairs(const std::vector<double>& v, F&& f) const {
    for (std::size_t i = 0; i < k.coeffs_.size(); ++i) {
      if (k.fixed_[k.drain_[i]] || k.fixed_[k.source_[i]]) {
        continue;
      }
      const device::BiasPoint bias{v[k.gate_[i]], v[k.drain_[i]],
                                   v[k.source_[i]], v[k.bulk_[i]]};
      if (!device::compiledIsOff(k.coeffs_[i], bias)) {
        f(k.drain_[i], k.source_[i]);
      }
    }
  }
};

SolverKernel::SolverKernel(const Netlist& netlist, SolverOptions options)
    : options_(options) {
  require(options_.bracket_hi > options_.bracket_lo,
          "SolverKernel: bracket_hi must exceed bracket_lo");

  const std::size_t n = netlist.nodeCount();
  const auto& devices = netlist.devices();
  const device::Environment env{options_.temperature_k};

  fixed_.resize(n);
  fixed_voltage_.assign(n, 0.0);
  for (NodeId node = 0; node < n; ++node) {
    fixed_[node] = netlist.isFixed(node);
    if (fixed_[node]) {
      fixed_voltage_[node] = netlist.fixedVoltage(node);
    }
  }

  gate_.reserve(devices.size());
  drain_.reserve(devices.size());
  source_.reserve(devices.size());
  bulk_.reserve(devices.size());
  owner_.reserve(devices.size());
  coeffs_.reserve(devices.size());
  mosfets_.reserve(devices.size());
  for (const DeviceInstance& dev : devices) {
    gate_.push_back(dev.gate);
    drain_.push_back(dev.drain);
    source_.push_back(dev.source);
    bulk_.push_back(dev.bulk);
    owner_.push_back(dev.owner);
    coeffs_.push_back(device::compileDevice(dev.mosfet, env));
    mosfets_.push_back(dev.mosfet);
  }

  // CSR incidence in the same (device-major, then gate/drain/source/bulk)
  // order DcSolver's buildIncidence appends - residual accumulation order
  // is part of the bit-identity contract.
  std::vector<std::size_t> counts(n, 0);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    ++counts[gate_[i]];
    ++counts[drain_[i]];
    ++counts[source_[i]];
    ++counts[bulk_[i]];
  }
  incidence_offset_.assign(n + 1, 0);
  for (NodeId node = 0; node < n; ++node) {
    incidence_offset_[node + 1] = incidence_offset_[node] + counts[node];
  }
  incidence_.resize(incidence_offset_[n]);
  std::vector<std::size_t> cursor(incidence_offset_.begin(),
                                  incidence_offset_.end() - 1);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const auto d = static_cast<std::uint32_t>(i);
    incidence_[cursor[gate_[i]]++] = {d, 0};
    incidence_[cursor[drain_[i]]++] = {d, 1};
    incidence_[cursor[source_[i]]++] = {d, 2};
    incidence_[cursor[bulk_[i]]++] = {d, 3};
  }

  // Sources: per-node index lists in source order, so each node's injected
  // sum accumulates exactly like Netlist::injectedCurrent.
  for (const CurrentSource& source : netlist.sources()) {
    source_node_.push_back(source.node);
    source_amps_.push_back(source.amps);
  }
  std::vector<std::size_t> source_counts(n, 0);
  for (const NodeId node : source_node_) {
    ++source_counts[node];
  }
  source_offset_.assign(n + 1, 0);
  for (NodeId node = 0; node < n; ++node) {
    source_offset_[node + 1] = source_offset_[node] + source_counts[node];
  }
  source_index_.resize(source_offset_[n]);
  std::vector<std::size_t> source_cursor(source_offset_.begin(),
                                         source_offset_.end() - 1);
  for (std::size_t s = 0; s < source_node_.size(); ++s) {
    source_index_[source_cursor[source_node_[s]]++] = s;
  }
  injected_ = injectedFor(source_amps_);
}

double SolverKernel::injectedAt(NodeId node,
                                std::span<const double> amps) const {
  double total = 0.0;
  for (std::size_t k = source_offset_[node]; k < source_offset_[node + 1];
       ++k) {
    total += amps[source_index_[k]];
  }
  return total;
}

std::vector<double> SolverKernel::injectedFor(
    std::span<const double> amps) const {
  std::vector<double> injected(nodeCount());
  for (NodeId node = 0; node < nodeCount(); ++node) {
    injected[node] = injectedAt(node, amps);
  }
  return injected;
}

void SolverKernel::setSource(SourceId source, double amps) {
  require(source < source_node_.size(),
          "SolverKernel::setSource: source out of range");
  source_amps_[source] = amps;
  injected_[source_node_[source]] =
      injectedAt(source_node_[source], source_amps_);
}

void SolverKernel::setFixedVoltage(NodeId node, double volts) {
  require(node < fixed_.size() && fixed_[node],
          "SolverKernel::setFixedVoltage: node is not fixed");
  fixed_voltage_[node] = volts;
}

void SolverKernel::setOptions(const SolverOptions& options) {
  require(options.bracket_hi > options.bracket_lo,
          "SolverKernel::setOptions: bracket_hi must exceed bracket_lo");
  const bool retemper = options.temperature_k != options_.temperature_k;
  options_ = options;
  if (retemper) {
    const device::Environment env{options_.temperature_k};
    for (std::size_t i = 0; i < mosfets_.size(); ++i) {
      coeffs_[i] = device::compileDevice(mosfets_[i], env);
    }
  }
}

void SolverKernel::rebindVariations(
    std::span<const device::DeviceVariation> variations) {
  require(variations.size() == mosfets_.size(),
          "SolverKernel::rebindVariations: variation count mismatch");
  const device::Environment env{options_.temperature_k};
  for (std::size_t i = 0; i < mosfets_.size(); ++i) {
    mosfets_[i].setVariation(variations[i]);
    coeffs_[i] = device::compileDevice(mosfets_[i], env);
  }
}

double SolverKernel::nodeResidual(const std::vector<double>& voltages,
                                  NodeId node) const {
  require(voltages.size() == nodeCount() && node < nodeCount(),
          "SolverKernel::nodeResidual: bad node or voltage vector");
  return KernelEvaluator<double>{*this, injected_}.residual(voltages, node);
}

Solution SolverKernel::solve(const std::vector<double>& initial_guess,
                             const std::vector<NodeId>& sweep_order,
                             const std::vector<double>* cluster_guess) const {
  return detail::solveRecorded(KernelEvaluator<double>{*this, injected_},
                               options_, initial_guess, sweep_order,
                               cluster_guess);
}

std::vector<device::LeakageBreakdown> SolverKernel::leakageByOwner(
    const std::vector<double>& voltages, std::size_t owner_count) const {
  require(voltages.size() == nodeCount(),
          "SolverKernel::leakageByOwner: voltage vector size mismatch");
  std::vector<device::LeakageBreakdown> by_owner(owner_count + 1);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    const device::BiasPoint bias{voltages[gate_[i]], voltages[drain_[i]],
                                 voltages[source_[i]], voltages[bulk_[i]]};
    const std::size_t slot =
        (owner_[i] >= 0 && static_cast<std::size_t>(owner_[i]) < owner_count)
            ? static_cast<std::size_t>(owner_[i])
            : owner_count;
    by_owner[slot] += device::compiledLeakage(coeffs_[i], bias);
  }
  return by_owner;
}

std::vector<Solution> SolverKernel::solveLanes(
    std::span<const LaneRequest> requests) const {
  const std::size_t count = requests.size();
  require(count >= 1 && count <= W,
          "SolverKernel::solveLanes: need 1..kLaneWidth lane requests");
  static const obs::Counter batch_solves = obs::counter("solver.batch_solves");
  static const obs::Counter batch_lane_solves =
      obs::counter("solver.batch_lane_solves");
  static const obs::Counter batch_fallbacks =
      obs::counter("solver.batch_fallbacks");
  static const obs::Histogram lane_occupancy = obs::histogram(
      "solver.batch_lane_occupancy", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  batch_solves.increment();
  batch_lane_solves.add(count);
  lane_occupancy.observe(static_cast<double>(count));

  // Initial guesses are checked by the solve driver.
  for (const LaneRequest& request : requests) {
    require(request.source_amps.size() == source_node_.size(),
            "SolverKernel::solveLanes: source_amps size mismatch");
  }

  std::vector<Solution> results(count);
  if constexpr (W > 1) {
    // Per-node injected currents, one lane per request; dormant lanes
    // inject nothing.
    std::vector<util::Lanes<W>> injected(nodeCount());
    std::array<detail::LaneSeed, W> seeds;
    for (NodeId node = 0; node < nodeCount(); ++node) {
      double amps[W] = {};
      for (std::size_t lane = 0; lane < count; ++lane) {
        amps[lane] = injectedAt(node, requests[lane].source_amps);
      }
      injected[node] = util::Lanes<W>::load(amps);
    }
    for (std::size_t lane = 0; lane < count; ++lane) {
      seeds[lane] = {requests[lane].initial_guess,
                     requests[lane].cluster_guess};
    }
    std::array<Solution, W> lockstep =
        detail::gaussSeidelSolve<util::Lanes<W>>(
            KernelEvaluator<util::Lanes<W>>{*this, injected}, options_,
            std::span<const detail::LaneSeed>(seeds.data(), count), {},
            std::min(max_lockstep_sweeps_, options_.max_sweeps));
    std::uint64_t fallbacks = 0;
    for (std::size_t lane = 0; lane < count; ++lane) {
      if (lockstep[lane].converged) {
        results[lane] = std::move(lockstep[lane]);
        detail::recordSolve(results[lane].node_solves, true,
                            results[lane].sweeps);
      } else {
        ++fallbacks;
      }
    }
    batch_fallbacks.add(fallbacks);
  }

  // Scalar fallback: lanes the lockstep driver left unconverged (every
  // lane on the width-1 backend) re-solve from their original request at
  // double, on the lane's own injected currents.
  static const std::vector<double> kColdStart;
  for (std::size_t lane = 0; lane < count; ++lane) {
    if (results[lane].converged) {
      continue;
    }
    const LaneRequest& request = requests[lane];
    const std::vector<double> injected = injectedFor(request.source_amps);
    results[lane] = detail::solveRecorded(
        KernelEvaluator<double>{*this, injected}, options_,
        request.initial_guess != nullptr ? *request.initial_guess
                                         : kColdStart,
        {}, request.cluster_guess);
  }
  return results;
}

}  // namespace nanoleak::circuit
