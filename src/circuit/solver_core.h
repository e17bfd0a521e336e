// The nonlinear Gauss-Seidel solve driver, written once for every solve.
//
// DcSolver (interpreting a Netlist), SolverKernel::solve (compiled SoA
// device arrays) and SolverKernel::solveLanes (W operating points in SIMD
// lockstep) differ only in how a node's KCL residual is evaluated and in
// its value type, so the sweep/cluster/safeguarded-Newton machinery is
// this one template over the value type T and an Evaluator:
//  * T = double solves one operating point with bool masks and the double
//    primitives of util/simd.h - the scalar operation sequence, so given
//    equal residual values DcSolver and SolverKernel::solve perform the
//    exact same floating-point operations (bit-identical by construction).
//  * T = util::Lanes<W> solves up to W operating points of one circuit,
//    voltages laid out [node][lane]. Converged lanes freeze by mask (their
//    voltages and work counters stop) while stragglers iterate; clusters
//    come from the union of the live lanes' ON pairs; dense Newton steps
//    are solved per lane and line-searched under an accept mask. Lanes
//    past the seeds given are dormant: mid-bracket, masked out throughout.
//
// The driver records nothing: callers record each solve once, when it
// finishes (detail::recordSolve), so a lane the lockstep driver leaves
// unconverged is counted only by the solve that settles it.
//
// Evaluator concept:
//   std::size_t nodeCount() const;
//   bool isFixed(NodeId node) const;
//   double fixedVoltage(NodeId node) const;            // requires isFixed
//   T residual(const std::vector<T>& v, NodeId node) const;
//   template <typename F>                              // f(drain, source)
//   void forOnPairs(const std::vector<double>& v, F&& f) const;
//     // every device whose drain AND source are free and whose channel is
//     // ON at v (one lane's voltages), in device order
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "circuit/dc_solver.h"
#include "circuit/solver_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/linalg.h"
#include "util/simd.h"

namespace nanoleak::circuit::detail {

// The primitives the driver calls (util/simd.h: double and Lanes<W>).
using util::laneAbs, util::laneAt, util::laneClamp, util::laneGT,
    util::laneIsFinite, util::laneLT, util::laneMax, util::laneMin,
    util::laneSelect, util::maskAll, util::maskAnd, util::maskAny, util::maskAt,
    util::maskNot, util::maskOr, util::setLaneAt, util::setMaskAt;

/// Minimal union-find for clustering strongly coupled nodes.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Starting point of one lane of a solve.
struct LaneSeed {
  /// Starting node voltages, clamped into the bracket; null or empty
  /// starts every free node mid-bracket.
  const std::vector<double>* initial_guess = nullptr;
  /// Voltages the initial clusters' ON/OFF devices are classified from;
  /// null (or a size mismatch) = the starting voltages. Warm starts pass
  /// the cold logic-level seed: at a near-solved warm seed, series-stack
  /// devices sit at marginal Vgs and read as OFF, which would dissolve
  /// the dense-Newton blocks that make the solve fast.
  const std::vector<double>* cluster_guess = nullptr;
};

/// Solves `seeds.size()` (1..kWidth of T) operating points of the circuit
/// `eval` describes, lane i starting from seeds[i], relaxing free nodes in
/// `sweep_order` (then any free node it omits) for at most `max_sweeps`
/// sweeps. Returns one Solution per seed in lane order. A lane that does
/// not converge reports converged == false, sweeps == max_sweeps and the
/// max residual at its final voltages. Polls util::pollCancel() at every
/// sweep boundary; records no solve (see file comment).
template <typename T, typename Evaluator>
std::array<Solution, util::LaneTraits<T>::kWidth> gaussSeidelSolve(
    const Evaluator& eval, const SolverOptions& options,
    std::span<const LaneSeed> seeds, const std::vector<NodeId>& sweep_order,
    std::size_t max_sweeps) {
  using Mask = util::MaskOf<T>;
  constexpr std::size_t kWidth = util::LaneTraits<T>::kWidth;
  const std::size_t lanes = seeds.size();
  const std::size_t n = eval.nodeCount();
  require(lanes >= 1 && lanes <= kWidth, "DC solve: lane count out of range");
  for (const LaneSeed& seed : seeds) {
    require(seed.initial_guess == nullptr || seed.initial_guess->empty() ||
                seed.initial_guess->size() == n,
            "DC solve: initial guess size mismatch");
  }
  OBS_SPAN("solve.gauss_seidel", ::nanoleak::obs::TraceLevel::kDetail);

  std::array<Solution, kWidth> solutions;
  std::vector<T> v(n, T(0.5 * (options.bracket_lo + options.bracket_hi)));
  for (NodeId node = 0; node < n; ++node) {
    if (eval.isFixed(node)) {
      v[node] = T(eval.fixedVoltage(node));
      continue;
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::vector<double>* guess = seeds[lane].initial_guess;
      if (guess != nullptr && !guess->empty()) {
        setLaneAt(v[node], lane,
                  std::clamp((*guess)[node], options.bracket_lo,
                             options.bracket_hi));
      }
    }
  }

  // Relaxation order: caller-provided free nodes first (topological order
  // gives near-one-sweep convergence), then any free nodes not mentioned.
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> scheduled(n, false);
  for (NodeId node : sweep_order) {
    require(node < n, "DC solve: sweep_order node out of range");
    if (!eval.isFixed(node) && !scheduled[node]) {
      order.push_back(node);
      scheduled[node] = true;
    }
  }
  for (NodeId node = 0; node < n; ++node) {
    if (!eval.isFixed(node) && !scheduled[node]) {
      order.push_back(node);
    }
  }

  Mask dormant{};
  for (std::size_t lane = lanes; lane < kWidth; ++lane) {
    setMaskAt(dormant, lane, true);
  }
  Mask converged{};

  // Every live lane's outcome, voltages out of the [node][lane] layout.
  auto finish = [&]() {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      Solution& solution = solutions[lane];
      solution.converged = maskAt(converged, lane);
      if (!solution.converged) {
        solution.sweeps = max_sweeps;
      }
      solution.voltages.resize(n);
      for (NodeId node = 0; node < n; ++node) {
        solution.voltages[node] = laneAt(v[node], lane);
      }
    }
    return std::move(solutions);
  };
  if (order.empty()) {
    converged = maskNot(dormant);
    return finish();
  }

  const T lo_bound(options.bracket_lo);
  const T hi_bound(options.bracket_hi);
  const T h(1e-7);  // forward-difference step: << 1 V, >> double rounding
  const T f_exit(0.1 * options.tol_current);

  // One node (or cluster) solve for every lane not in `skip`.
  auto chargeNodeSolve = [&](Mask skip) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!maskAt(skip, lane)) {
        ++solutions[lane].node_solves;
      }
    }
  };

  // Solve at one node: safeguarded Newton on the (monotone in v) residual,
  // with a maintained bisection bracket as fallback. Lanes in `skip` never
  // move. Returns the voltage change magnitude.
  auto solveNode = [&](NodeId node, Mask skip) -> T {
    T lo = lo_bound;
    T hi = hi_bound;
    const T start = v[node];
    T x = start;
    T fx = eval.residual(v, node);
    chargeNodeSolve(skip);
    Mask done = skip;
    for (std::size_t iter = 0; iter < options.max_node_iterations; ++iter) {
      done = maskOr(done, laneLT(laneAbs(fx), f_exit));
      if (maskAll(done)) {
        break;
      }
      const Mask live = maskNot(done);
      const Mask fx_pos = laneGT(fx, T(0.0));
      hi = laneSelect(maskAnd(live, fx_pos), laneMin(hi, x), hi);
      lo = laneSelect(maskAnd(live, maskNot(fx_pos)), laneMax(lo, x), lo);
      v[node] = laneSelect(done, x, x + h);
      const T fxh = eval.residual(v, node);
      const T dfdx = (fxh - fx) / h;
      const T mid = T(0.5) * (lo + hi);
      // Frozen lanes see dfdx == 0 (their voltage did not move); the
      // Newton step then divides by zero and the selects discard it.
      const Mask newton_ok = maskAnd(laneGT(dfdx, T(0.0)), laneIsFinite(dfdx));
      T next = laneSelect(newton_ok, x - fx / dfdx, mid);
      next = laneSelect(maskAnd(laneGT(next, lo), laneLT(next, hi)), next,
                        mid);
      done = maskOr(done, laneLT(laneAbs(next - x), T(1e-15)));
      if (maskAll(done)) {
        break;
      }
      x = laneSelect(done, x, next);
      v[node] = x;
      fx = eval.residual(v, node);
    }
    v[node] = x;
    return laneAbs(x - start);
  };

  // Largest |value| per lane.
  auto maxAbs = [](const std::vector<T>& values) {
    T m(0.0);
    for (const T& value : values) {
      m = laneMax(m, laneAbs(value));
    }
    return m;
  };

  // Dense Newton over one strongly-coupled cluster (a few unknowns): a
  // numeric Jacobian, per-lane dense solves and a damped, bracket-clamped
  // line search on the residual norm; lanes whose step is rejected take
  // one coordinate-descent pass through the cluster instead.
  auto solveCluster = [&](const std::vector<NodeId>& members,
                          Mask skip) -> T {
    const std::size_t k = members.size();
    std::vector<T> f(k);
    std::vector<T> start(k);
    for (std::size_t i = 0; i < k; ++i) {
      start[i] = v[members[i]];
      f[i] = eval.residual(v, members[i]);
    }
    chargeNodeSolve(skip);
    Mask done = skip;
    std::vector<T> jac(k * k);
    std::vector<T> step(k);
    std::vector<T> backup(k);
    std::vector<T> f_new(k);
    std::vector<double> matrix(k * k);
    std::vector<double> rhs(k);
    for (std::size_t iter = 0; iter < options.max_node_iterations; ++iter) {
      done = maskOr(done, laneLT(maxAbs(f), f_exit));
      if (maskAll(done)) {
        break;
      }
      // Numeric Jacobian, column by column.
      for (std::size_t j = 0; j < k; ++j) {
        const T saved = v[members[j]];
        v[members[j]] = saved + h;
        for (std::size_t i = 0; i < k; ++i) {
          jac[i * k + j] = (eval.residual(v, members[i]) - f[i]) / h;
        }
        v[members[j]] = saved;
      }
      Mask solved{};
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (maskAt(done, lane)) {
          continue;
        }
        for (std::size_t idx = 0; idx < k * k; ++idx) {
          matrix[idx] = laneAt(jac[idx], lane);
        }
        for (std::size_t i = 0; i < k; ++i) {
          rhs[i] = -laneAt(f[i], lane);
        }
        if (solveDense(matrix, rhs, k)) {
          setMaskAt(solved, lane, true);
          for (std::size_t i = 0; i < k; ++i) {
            setLaneAt(step[i], lane, rhs[i]);
          }
        }
      }
      const T f_norm = maxAbs(f);
      Mask accepted = done;
      for (std::size_t i = 0; i < k; ++i) {
        backup[i] = v[members[i]];
      }
      T alpha(1.0);
      for (int attempt = 0; attempt < 6; ++attempt) {
        const Mask attempting = maskAnd(maskNot(accepted), solved);
        if (!maskAny(attempting)) {
          break;
        }
        for (std::size_t i = 0; i < k; ++i) {
          const T trial =
              laneClamp(backup[i] + alpha * step[i], lo_bound, hi_bound);
          v[members[i]] = laneSelect(attempting, trial, v[members[i]]);
        }
        for (std::size_t i = 0; i < k; ++i) {
          f_new[i] = eval.residual(v, members[i]);
        }
        const T f_new_norm = maxAbs(f_new);
        const Mask ok =
            maskOr(laneLT(f_new_norm, f_norm), laneLT(f_new_norm, f_exit));
        const Mask newly = maskAnd(attempting, ok);
        for (std::size_t i = 0; i < k; ++i) {
          f[i] = laneSelect(newly, f_new[i], f[i]);
        }
        accepted = maskOr(accepted, newly);
        const Mask rejected = maskAnd(attempting, maskNot(ok));
        for (std::size_t i = 0; i < k; ++i) {
          v[members[i]] = laneSelect(rejected, backup[i], v[members[i]]);
        }
        alpha = laneSelect(rejected, alpha * T(0.5), alpha);
      }
      const Mask fallback = maskAnd(maskNot(accepted), maskNot(dormant));
      if (maskAny(fallback)) {
        static const obs::Counter cluster_fallbacks =
            obs::counter("solver.cluster_fallbacks");
        std::uint64_t falling = 0;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          falling += maskAt(fallback, lane) ? 1 : 0;
        }
        cluster_fallbacks.add(falling);
        for (NodeId node : members) {
          solveNode(node, maskNot(fallback));
        }
        for (std::size_t i = 0; i < k; ++i) {
          f[i] = eval.residual(v, members[i]);
        }
      }
    }
    T max_dv(0.0);
    for (std::size_t i = 0; i < k; ++i) {
      max_dv = laneMax(max_dv, laneAbs(v[members[i]] - start[i]));
    }
    return max_dv;
  };

  // Max |residual| over the free nodes for the lanes in `check`,
  // remembering the offending node so ConvergenceError messages can name
  // it.
  auto residualCheck = [&](Mask check) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (maskAt(check, lane)) {
        solutions[lane].max_residual = 0.0;
      }
    }
    for (NodeId node : order) {
      const T r = laneAbs(eval.residual(v, node));
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        Solution& s = solutions[lane];
        if (maskAt(check, lane) && laneAt(r, lane) > s.max_residual) {
          s.max_residual = laneAt(r, lane);
          s.max_residual_node = node;
        }
      }
    }
  };

  // Groups free nodes connected drain-to-source through a transistor ON
  // in any live lane. Such pairs are so strongly coupled that node-by-node
  // relaxation crawls; each cluster is solved as one dense Newton block
  // instead. Clusters come in sweep order, members ordered by sweep
  // position.
  std::vector<double> lane_voltages(n);
  auto buildClusters = [&](bool initial) {
    UnionFind uf(n);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (maskAt(converged, lane)) {
        continue;
      }
      const std::vector<double>* classify = seeds[lane].cluster_guess;
      if (!initial || classify == nullptr || classify->size() != n) {
        for (NodeId node = 0; node < n; ++node) {
          lane_voltages[node] = laneAt(v[node], lane);
        }
        classify = &lane_voltages;
      }
      eval.forOnPairs(*classify, [&](NodeId drain, NodeId source) {
        uf.unite(drain, source);
      });
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

  auto clusters = buildClusters(true);
  bool reclustered = false;
  for (std::size_t sweep = 1; sweep <= max_sweeps; ++sweep) {
    // Sweep boundaries are the solver's cancellation safe points: no
    // shared state is mid-update, so a deadline unwind here leaves only
    // these (discarded) Solutions partially filled.
    util::pollCancel();
    const Mask skip = maskOr(dormant, converged);
    T max_dv(0.0);
    for (const std::vector<NodeId>& cluster : clusters) {
      const T dv = cluster.size() == 1 ? solveNode(cluster[0], skip)
                                       : solveCluster(cluster, skip);
      max_dv = laneMax(max_dv, dv);
    }
    const Mask settled =
        maskAnd(maskNot(skip), laneLT(max_dv, T(options.tol_voltage)));
    if (maskAny(settled)) {
      // Voltages settled; verify KCL everywhere before declaring victory.
      residualCheck(settled);
      bool settled_unconverged = false;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (!maskAt(settled, lane)) {
          continue;
        }
        if (solutions[lane].max_residual < options.tol_current) {
          setMaskAt(converged, lane, true);
          solutions[lane].sweeps = sweep;
        } else {
          settled_unconverged = true;
        }
      }
      if (settled_unconverged && !reclustered) {
        // Device on/off states may have shifted since the initial guess;
        // recluster once from the live lanes' current voltages and keep
        // sweeping.
        clusters = buildClusters(false);
        reclustered = true;
      }
    }
    if (maskAll(maskOr(dormant, converged))) {
      return finish();
    }
  }
  residualCheck(maskAnd(maskNot(dormant), maskNot(converged)));
  return finish();
}

/// One scalar (T = double) solve of `eval`, recorded when it finishes:
/// DcSolver::solve, SolverKernel::solve and the lane fallback.
template <typename Evaluator>
Solution solveRecorded(const Evaluator& eval, const SolverOptions& options,
                       const std::vector<double>& initial_guess,
                       const std::vector<NodeId>& sweep_order,
                       const std::vector<double>* cluster_guess = nullptr) {
  const LaneSeed seed{&initial_guess, cluster_guess};
  Solution solution = std::move(gaussSeidelSolve<double>(
      eval, options, std::span<const LaneSeed>(&seed, 1), sweep_order,
      options.max_sweeps)[0]);
  recordSolve(solution.node_solves, solution.converged, solution.sweeps);
  return solution;
}

}  // namespace nanoleak::circuit::detail
