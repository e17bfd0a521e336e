#include "circuit/solver_kernel.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "circuit/solver_core.h"
#include "device/lane_model.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/linalg.h"

namespace nanoleak::circuit {

using util::LaneMask;
using util::Lanes;

/// Adapts a SolverKernel, with one set of per-node injected currents, to
/// the solver_core Evaluator concept.
struct KernelEvaluator {
  const SolverKernel& kernel;
  const std::vector<double>& injected;

  std::size_t nodeCount() const { return kernel.nodeCount(); }
  bool isFixed(NodeId node) const { return kernel.fixed_[node]; }
  double fixedVoltage(NodeId node) const {
    return kernel.fixed_voltage_[node];
  }
  double residual(const std::vector<double>& voltages, NodeId node) const {
    return kernel.residual(voltages, node, injected);
  }
  template <typename F>
  void forOnPairs(const std::vector<double>& voltages, F&& f) const {
    kernel.forOnPairs(voltages, std::forward<F>(f));
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

double SolverKernel::residual(const std::vector<double>& voltages,
                              NodeId node,
                              const std::vector<double>& injected) const {
  double residual = options_.gmin * voltages[node];
  for (std::size_t k = incidence_offset_[node];
       k < incidence_offset_[node + 1]; ++k) {
    const IncidenceEntry entry = incidence_[k];
    const std::size_t d = entry.device;
    const device::BiasPoint bias{voltages[gate_[d]], voltages[drain_[d]],
                                 voltages[source_[d]], voltages[bulk_[d]]};
    residual += device::compiledTerminalCurrent(
        coeffs_[d], bias,
        static_cast<device::CompiledTerminal>(entry.terminal));
  }
  return residual - injected[node];
}

double SolverKernel::nodeResidual(const std::vector<double>& voltages,
                                  NodeId node) const {
  require(voltages.size() == nodeCount() && node < nodeCount(),
          "SolverKernel::nodeResidual: bad node or voltage vector");
  return residual(voltages, node, injected_);
}

Solution SolverKernel::solve(const std::vector<double>& initial_guess,
                             const std::vector<NodeId>& sweep_order,
                             const std::vector<double>* cluster_guess) const {
  return solveInjected(injected_, initial_guess, sweep_order, cluster_guess);
}

Solution SolverKernel::solveInjected(
    const std::vector<double>& injected,
    const std::vector<double>& initial_guess,
    const std::vector<NodeId>& sweep_order,
    const std::vector<double>* cluster_guess) const {
  return detail::gaussSeidelSolve(KernelEvaluator{*this, injected}, options_,
                                  initial_guess, sweep_order, cluster_guess);
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

  std::vector<std::vector<double>> injected(count);
  for (std::size_t lane = 0; lane < count; ++lane) {
    const LaneRequest& request = requests[lane];
    require(request.source_amps.size() == source_node_.size(),
            "SolverKernel::solveLanes: source_amps size mismatch");
    require(request.initial_guess == nullptr ||
                request.initial_guess->empty() ||
                request.initial_guess->size() == nodeCount(),
            "SolverKernel::solveLanes: initial guess size mismatch");
    injected[lane] = injectedFor(request.source_amps);
  }

  std::vector<Solution> results(count);
  std::array<bool, W> pending{};
  for (std::size_t lane = 0; lane < count; ++lane) {
    pending[lane] = true;
  }

  if constexpr (W > 1) {
    const std::size_t budget =
        std::min(max_lockstep_sweeps_, options_.max_sweeps);
    if (budget > 0) {
      solveLockstep(requests, injected, budget, results, pending);
    }
    std::uint64_t fallbacks = 0;
    for (std::size_t lane = 0; lane < count; ++lane) {
      if (pending[lane]) {
        ++fallbacks;
      }
    }
    batch_fallbacks.add(fallbacks);
  }

  static const std::vector<double> kColdStart;
  for (std::size_t lane = 0; lane < count; ++lane) {
    if (pending[lane]) {
      const LaneRequest& request = requests[lane];
      results[lane] = solveInjected(
          injected[lane],
          request.initial_guess != nullptr ? *request.initial_guess
                                           : kColdStart,
          {}, request.cluster_guess);
    }
  }
  return results;
}

void SolverKernel::solveLockstep(
    std::span<const LaneRequest> requests,
    const std::vector<std::vector<double>>& injected,
    std::size_t sweep_budget, std::vector<Solution>& results,
    std::array<bool, W>& pending) const {
  const std::size_t count = requests.size();
  const std::size_t n = nodeCount();
  constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  const double f_exit = 0.1 * options_.tol_current;
  const Lanes<W> gmin_l(options_.gmin);
  const Lanes<W> lo_l(options_.bracket_lo);
  const Lanes<W> hi_l(options_.bracket_hi);

  // Node voltages and injected currents, lane-SoA: [node * W + lane].
  // Lanes past `count` are dormant: mid-bracket, no injection, masked out
  // of every update.
  std::vector<double> vsoa(n * W);
  std::vector<double> injsoa(n * W, 0.0);
  for (NodeId node = 0; node < n; ++node) {
    for (std::size_t lane = 0; lane < W; ++lane) {
      double v = 0.5 * (options_.bracket_lo + options_.bracket_hi);
      if (fixed_[node]) {
        v = fixed_voltage_[node];
      } else if (lane < count && requests[lane].initial_guess != nullptr &&
                 !requests[lane].initial_guess->empty()) {
        v = std::clamp((*requests[lane].initial_guess)[node],
                       options_.bracket_lo, options_.bracket_hi);
      }
      vsoa[node * W + lane] = v;
      if (lane < count) {
        injsoa[node * W + lane] = injected[lane][node];
      }
    }
  }

  // Relaxation order: identical to the scalar driver's default order.
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId node = 0; node < n; ++node) {
    if (!fixed_[node]) {
      order.push_back(node);
    }
  }
  if (order.empty()) {
    for (std::size_t lane = 0; lane < count; ++lane) {
      Solution s;
      s.voltages.resize(n);
      for (NodeId node = 0; node < n; ++node) {
        s.voltages[node] = vsoa[node * W + lane];
      }
      s.converged = true;
      detail::recordSolve(s.node_solves, true, s.sweeps);
      results[lane] = std::move(s);
      pending[lane] = false;
    }
    return;
  }

  // One vectorized KCL residual: every lane of `node` at once.
  auto laneResidual = [&](NodeId node) -> Lanes<W> {
    Lanes<W> r = gmin_l * Lanes<W>::load(&vsoa[node * W]);
    for (std::size_t k = incidence_offset_[node];
         k < incidence_offset_[node + 1]; ++k) {
      const IncidenceEntry entry = incidence_[k];
      const std::size_t d = entry.device;
      const device::LaneBias<W> bias{Lanes<W>::load(&vsoa[gate_[d] * W]),
                                     Lanes<W>::load(&vsoa[drain_[d] * W]),
                                     Lanes<W>::load(&vsoa[source_[d] * W]),
                                     Lanes<W>::load(&vsoa[bulk_[d] * W])};
      r = r + device::laneTerminalCurrent(
                  coeffs_[d], bias,
                  static_cast<device::CompiledTerminal>(entry.terminal));
    }
    return r - Lanes<W>::load(&injsoa[node * W]);
  };

  LaneMask<W> dormant = LaneMask<W>::none();
  for (std::size_t lane = count; lane < W; ++lane) {
    dormant.setLane(lane, true);
  }
  LaneMask<W> converged = LaneMask<W>::none();
  std::array<std::uint64_t, W> node_solves{};
  std::array<std::size_t, W> sweeps_at_convergence{};
  std::array<double, W> lane_max_residual{};
  std::array<NodeId, W> lane_max_residual_node;
  lane_max_residual_node.fill(kNoNode);

  auto chargeNodeSolve = [&](LaneMask<W> skip) {
    for (std::size_t lane = 0; lane < count; ++lane) {
      if (!skip.lane(lane)) {
        ++node_solves[lane];
      }
    }
  };

  const Lanes<W> zero(0.0);
  const Lanes<W> half(0.5);
  const Lanes<W> hstep(1e-7);
  auto clampLanes = [&](Lanes<W> x) { return laneMin(laneMax(x, lo_l), hi_l); };

  // Masked safeguarded Newton at one node; lanes in `skip` never move.
  // Mirrors solver_core's solveScalar step for step, with frozen lanes
  // blended back to their current value at every update.
  auto solveScalarLanes = [&](NodeId node, LaneMask<W> skip) -> Lanes<W> {
    Lanes<W> lo = lo_l;
    Lanes<W> hi = hi_l;
    const Lanes<W> start = Lanes<W>::load(&vsoa[node * W]);
    Lanes<W> x = start;
    Lanes<W> fx = laneResidual(node);
    chargeNodeSolve(skip);
    LaneMask<W> done = skip;
    for (std::size_t iter = 0; iter < options_.max_node_iterations; ++iter) {
      done = maskOr(done, laneLT(laneAbs(fx), Lanes<W>(f_exit)));
      if (maskAll(done)) {
        break;
      }
      const LaneMask<W> live = maskNot(done);
      const LaneMask<W> fx_pos = laneGT(fx, zero);
      hi = laneSelect(maskAnd(live, fx_pos), laneMin(hi, x), hi);
      lo = laneSelect(maskAnd(live, maskNot(fx_pos)), laneMax(lo, x), lo);
      laneSelect(done, x, x + hstep).store(&vsoa[node * W]);
      const Lanes<W> fxh = laneResidual(node);
      const Lanes<W> dfdx = (fxh - fx) / hstep;
      const Lanes<W> mid = half * (lo + hi);
      // Frozen lanes produce dfdx == 0 here (their voltage did not move);
      // the Newton step then divides by zero, and the blends below discard
      // the resulting inf without contaminating live lanes.
      const Lanes<W> newton = x - fx / dfdx;
      const LaneMask<W> good =
          maskAnd(laneGT(dfdx, zero), laneLT(laneAbs(dfdx), Lanes<W>(1e308)));
      Lanes<W> next = laneSelect(good, newton, mid);
      const LaneMask<W> in_bracket =
          maskAnd(laneGT(next, lo), laneLT(next, hi));
      next = laneSelect(in_bracket, next, mid);
      const LaneMask<W> tiny =
          laneLT(laneAbs(next - x), Lanes<W>(1e-15));
      done = maskOr(done, tiny);
      x = laneSelect(done, x, next);
      x.store(&vsoa[node * W]);
      fx = laneResidual(node);
    }
    x.store(&vsoa[node * W]);
    return laneAbs(x - start);
  };

  // Masked dense-Newton over one strongly-coupled cluster: lane-parallel
  // residuals and Jacobian columns, per-lane k-by-k dense solves, and an
  // accept-masked damped line search; lanes whose step is rejected take
  // the coordinate-descent fallback, all under the frozen-lane mask.
  auto solveClusterLanes = [&](const std::vector<NodeId>& members,
                               LaneMask<W> skip) -> Lanes<W> {
    const std::size_t k = members.size();
    std::vector<Lanes<W>> f(k);
    std::vector<Lanes<W>> start(k);
    for (std::size_t i = 0; i < k; ++i) {
      start[i] = Lanes<W>::load(&vsoa[members[i] * W]);
      f[i] = laneResidual(members[i]);
    }
    chargeNodeSolve(skip);
    LaneMask<W> done = skip;
    std::vector<Lanes<W>> jac(k * k);
    std::vector<Lanes<W>> step(k);
    std::vector<Lanes<W>> backup(k);
    std::vector<Lanes<W>> f_new(k);
    std::vector<double> mat(k * k);
    std::vector<double> rhs(k);
    auto maxAbsLanes = [&](const std::vector<Lanes<W>>& values) {
      Lanes<W> m(0.0);
      for (const Lanes<W>& value : values) {
        m = laneMax(m, laneAbs(value));
      }
      return m;
    };
    for (std::size_t iter = 0; iter < options_.max_node_iterations; ++iter) {
      done = maskOr(done, laneLT(maxAbsLanes(f), Lanes<W>(f_exit)));
      if (maskAll(done)) {
        break;
      }
      // Lane-parallel numeric Jacobian, column by column.
      for (std::size_t j = 0; j < k; ++j) {
        const Lanes<W> saved = Lanes<W>::load(&vsoa[members[j] * W]);
        (saved + hstep).store(&vsoa[members[j] * W]);
        for (std::size_t i = 0; i < k; ++i) {
          jac[i * k + j] = (laneResidual(members[i]) - f[i]) / hstep;
        }
        saved.store(&vsoa[members[j] * W]);
      }
      // Per-lane dense solves of the k-by-k Newton systems.
      LaneMask<W> solved = LaneMask<W>::none();
      for (std::size_t lane = 0; lane < count; ++lane) {
        if (done.lane(lane)) {
          continue;
        }
        for (std::size_t idx = 0; idx < k * k; ++idx) {
          mat[idx] = jac[idx][lane];
        }
        for (std::size_t i = 0; i < k; ++i) {
          rhs[i] = -f[i][lane];
        }
        if (nanoleak::solveDense(mat, rhs, k)) {
          solved.setLane(lane, true);
          for (std::size_t i = 0; i < k; ++i) {
            step[i].setLane(lane, rhs[i]);
          }
        }
      }
      // Accept-masked damped line search on the residual norm.
      const Lanes<W> f_norm = maxAbsLanes(f);
      LaneMask<W> accepted = done;
      for (std::size_t i = 0; i < k; ++i) {
        backup[i] = Lanes<W>::load(&vsoa[members[i] * W]);
      }
      Lanes<W> alpha(1.0);
      for (int attempt = 0; attempt < 6; ++attempt) {
        const LaneMask<W> attempting = maskAnd(maskNot(accepted), solved);
        if (!maskAny(attempting)) {
          break;
        }
        for (std::size_t i = 0; i < k; ++i) {
          const Lanes<W> trial = clampLanes(backup[i] + alpha * step[i]);
          const Lanes<W> current = Lanes<W>::load(&vsoa[members[i] * W]);
          laneSelect(attempting, trial, current).store(&vsoa[members[i] * W]);
        }
        for (std::size_t i = 0; i < k; ++i) {
          f_new[i] = laneResidual(members[i]);
        }
        const Lanes<W> f_new_norm = maxAbsLanes(f_new);
        const LaneMask<W> ok = maskOr(laneLT(f_new_norm, f_norm),
                                      laneLT(f_new_norm, Lanes<W>(f_exit)));
        const LaneMask<W> newly = maskAnd(attempting, ok);
        for (std::size_t i = 0; i < k; ++i) {
          f[i] = laneSelect(newly, f_new[i], f[i]);
        }
        accepted = maskOr(accepted, newly);
        const LaneMask<W> rejected = maskAnd(attempting, maskNot(ok));
        for (std::size_t i = 0; i < k; ++i) {
          const Lanes<W> current = Lanes<W>::load(&vsoa[members[i] * W]);
          laneSelect(rejected, backup[i], current).store(&vsoa[members[i] * W]);
        }
        alpha = laneSelect(rejected, alpha * half, alpha);
      }
      const LaneMask<W> need_fallback =
          maskAnd(maskNot(accepted), maskNot(dormant));
      if (maskAny(need_fallback)) {
        static const obs::Counter cluster_fallbacks =
            obs::counter("solver.cluster_fallbacks");
        std::uint64_t lanes_falling = 0;
        for (std::size_t lane = 0; lane < count; ++lane) {
          if (need_fallback.lane(lane)) {
            ++lanes_falling;
          }
        }
        cluster_fallbacks.add(lanes_falling);
        for (NodeId node : members) {
          solveScalarLanes(node, maskNot(need_fallback));
        }
        for (std::size_t i = 0; i < k; ++i) {
          f[i] = laneResidual(members[i]);
        }
      }
    }
    Lanes<W> max_dv(0.0);
    for (std::size_t i = 0; i < k; ++i) {
      max_dv = laneMax(
          max_dv, laneAbs(Lanes<W>::load(&vsoa[members[i] * W]) - start[i]));
    }
    return max_dv;
  };

  // Clusters from the UNION of ON drain-source pairs across the live
  // lanes: a pair strongly coupled in any lane is dense-solved in all, so
  // no lane is left relaxing a stiff pair scalar-wise.
  std::vector<double> scratch(n);
  auto buildLockstepClusters = [&](bool initial) {
    detail::UnionFind uf(n);
    for (std::size_t lane = 0; lane < count; ++lane) {
      if (converged.lane(lane)) {
        continue;
      }
      const std::vector<double>* cv = nullptr;
      if (initial && requests[lane].cluster_guess != nullptr &&
          requests[lane].cluster_guess->size() == n) {
        cv = requests[lane].cluster_guess;
      } else {
        for (NodeId node = 0; node < n; ++node) {
          scratch[node] = vsoa[node * W + lane];
        }
        cv = &scratch;
      }
      forOnPairs(*cv, [&](NodeId d, NodeId s) { uf.unite(d, s); });
    }
    std::vector<std::vector<NodeId>> clusters;
    std::vector<std::ptrdiff_t> cluster_of(n, -1);
    for (NodeId node : order) {
      const std::size_t root = uf.find(node);
      if (cluster_of[root] < 0) {
        cluster_of[root] = static_cast<std::ptrdiff_t>(clusters.size());
        clusters.emplace_back();
      }
      clusters[static_cast<std::size_t>(cluster_of[root])].push_back(node);
    }
    return clusters;
  };
  auto clusters = buildLockstepClusters(true);
  bool reclustered = false;

  for (std::size_t sweep = 1; sweep <= sweep_budget; ++sweep) {
    const LaneMask<W> skip = maskOr(dormant, converged);
    Lanes<W> max_dv(0.0);
    for (const std::vector<NodeId>& cluster : clusters) {
      const Lanes<W> dv = cluster.size() == 1
                              ? solveScalarLanes(cluster[0], skip)
                              : solveClusterLanes(cluster, skip);
      max_dv = laneMax(max_dv, dv);
    }
    const LaneMask<W> settled =
        maskAnd(maskNot(skip), laneLT(max_dv, Lanes<W>(options_.tol_voltage)));
    if (maskAny(settled)) {
      // Voltages settled in some lanes; verify their KCL residuals.
      std::array<double, W> max_r{};
      std::array<NodeId, W> arg_r;
      arg_r.fill(kNoNode);
      for (NodeId node : order) {
        const Lanes<W> r = laneAbs(laneResidual(node));
        for (std::size_t lane = 0; lane < count; ++lane) {
          if (settled.lane(lane) && r[lane] > max_r[lane]) {
            max_r[lane] = r[lane];
            arg_r[lane] = node;
          }
        }
      }
      bool settled_unconverged = false;
      for (std::size_t lane = 0; lane < count; ++lane) {
        if (!settled.lane(lane)) {
          continue;
        }
        lane_max_residual[lane] = max_r[lane];
        lane_max_residual_node[lane] = arg_r[lane];
        if (max_r[lane] < options_.tol_current) {
          converged.setLane(lane, true);
          sweeps_at_convergence[lane] = sweep;
        } else {
          settled_unconverged = true;
        }
      }
      if (settled_unconverged && !reclustered) {
        // Device on/off states may have shifted; recluster once from the
        // live lanes' current voltages and keep sweeping.
        clusters = buildLockstepClusters(false);
        reclustered = true;
      }
    }
    if (maskAll(maskOr(dormant, converged))) {
      break;
    }
  }

  for (std::size_t lane = 0; lane < count; ++lane) {
    if (!converged.lane(lane)) {
      continue;  // stays pending -> scalar fallback
    }
    Solution s;
    s.voltages.resize(n);
    for (NodeId node = 0; node < n; ++node) {
      s.voltages[node] = vsoa[node * W + lane];
    }
    s.converged = true;
    s.sweeps = sweeps_at_convergence[lane];
    s.max_residual = lane_max_residual[lane];
    s.max_residual_node = lane_max_residual_node[lane];
    s.node_solves = node_solves[lane];
    detail::recordSolve(s.node_solves, true, s.sweeps);
    results[lane] = std::move(s);
    pending[lane] = false;
  }
}

}  // namespace nanoleak::circuit
