/// @file
/// Optimistic per-gate leakage bounds for branch-and-bound pruning.
///
/// For every (gate, input vector) LeakageBounds precomputes a sound
/// interval [lo, hi] containing the gate's total leakage contribution under
/// *any* full source assignment that resolves the gate to that vector:
///
///  - Without loading the estimator charges exactly
///    isolated_nominal.total(), so the interval is (almost) a point.
///  - With loading the estimator bilinearly interpolates the three
///    component surfaces at one clamped (IL, OL) location over shared
///    axes, so the gate total is a convex combination of the grid-point
///    sums sub(i,j)+gate(i,j)+btbt(i,j). The reachable loading magnitudes
///    are themselves bounded: |IL| and |OL| can never exceed the sum of
///    the worst-case |pin current| of every other pin on the gate's nets
///    (plus DFF D-pin loads), so only grid points up to those caps can
///    influence the interpolation. The interval is the min/max grid-point
///    sum over that reachable sub-rectangle [0, i] x [0, j], read from a
///    table of those extrema for every (i, j) that is built once per
///    (gate kind, vector).
///
/// Both cases are widened by a relative slack (kRelativeSlack) that
/// dominates every floating-point effect the bound must absorb:
/// interpolation rounding, and the reassociation difference between the
/// estimator's total (each component summed over gates, then the three
/// added) and the sum of per-gate totals used here. Pruning against these
/// intervals is therefore conservative: a subtree is only cut when even
/// its optimistic bound cannot beat the incumbent.
///
/// BoundTracker maintains, on a trail parallel to TernaryPropagator's,
/// the circuit-wide sums of per-gate interval endpoints as source
/// assignments narrow each gate's possible-vector set. The sums are
/// order-free (util::OrderFreeSum), so they never drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimation_plan.h"
#include "search/ternary.h"
#include "util/order_free_sum.h"

namespace nanoleak::search {

/// Static per-(gate, input vector) leakage intervals for one plan.
class LeakageBounds {
 public:
  /// Relative widening applied to every interval endpoint; orders of
  /// magnitude above the interpolation and reassociation rounding it
  /// covers (~1e-13 for 1e3-gate sums), and orders of magnitude below any
  /// physical leakage difference, so it never masks a real optimum.
  static constexpr double kRelativeSlack = 1e-9;

  /// Precomputes intervals from the plan's resolved tables. The plan must
  /// outlive the bounds.
  explicit LeakageBounds(const core::EstimationPlan& plan);

  /// Lower endpoint for gate `g` resolved to vector `v`.
  double vectorMin(logic::GateId g, std::size_t v) const {
    return vmin_[offset_[g] + v];
  }
  /// Upper endpoint for gate `g` resolved to vector `v`.
  double vectorMax(logic::GateId g, std::size_t v) const {
    return vmax_[offset_[g] + v];
  }
  /// Smallest lower endpoint over a possible-vector bitmask (nonzero).
  double maskMin(logic::GateId g, std::uint32_t mask) const;
  /// Largest upper endpoint over a possible-vector bitmask (nonzero).
  double maskMax(logic::GateId g, std::uint32_t mask) const;

 private:
  std::vector<std::size_t> offset_;  // CSR: gate g's vectors start here
  std::vector<double> vmin_;
  std::vector<double> vmax_;
};

/// Static impact score of every source, in netlist.sourceNets() order: the
/// summed bound width maskMax - maskMin over all vectors of every gate in
/// the source's fanout cone (the gates reachable from it through gate
/// inputs; DFFs end a cone), a measure of how much circuit leakage that
/// input can move. Widths are added in
/// LogicNetlist::topologicalOrder() order, so a score depends only on its
/// cone's gate set: sources with the same cone get bit-identical scores,
/// and a source with an empty cone gets +0.0. One bit-parallel pass over
/// the gates per 64 sources. Seeds the heuristic's greedy assignment order
/// and its activity scores.
std::vector<double> staticImpact(const core::EstimationPlan& plan,
                                 const LeakageBounds& bounds);

/// Incremental circuit-wide bound sums under a growing partial assignment.
///
/// Drive it in lockstep with a TernaryPropagator: after every
/// propagator.assign() call push() with the newly implied nets, and pair
/// every propagator.backtrack() with pop(). Each update removes a gate's
/// old interval endpoints from order-free sums and adds its new ones, so
/// the sums depend only on the current per-gate intervals: pop() restores
/// the previous sums bit for bit, and runningMin()/runningMax() equal
/// exactMin()/exactMax().
class BoundTracker {
 public:
  /// Binds to a propagator/bounds pair (both must outlive the tracker)
  /// and initializes every gate to its unconstrained interval.
  BoundTracker(const core::EstimationPlan& plan,
               const TernaryPropagator& propagator,
               const LeakageBounds& bounds);

  /// Opens a level: tightens the contribution of every gate whose
  /// possible-vector set shrank when `implied` nets became known.
  void push(std::span<const logic::NetId> implied);
  /// Undoes the latest push (requires one open level).
  void pop();

  /// Running lower bound on the circuit total over all completions.
  double runningMin() const { return exactMin(); }
  /// Running upper bound on the circuit total over all completions.
  double runningMax() const { return exactMax(); }
  /// Lower bound on the circuit total: the correctly rounded exact sum of
  /// the per-gate lower endpoints.
  double exactMin() const { return kUnscale * sums_.value(0); }
  /// Upper bound on the circuit total (see exactMin()).
  double exactMax() const { return kUnscale * sums_.value(1); }

 private:
  const logic::LogicNetlist& netlist_;
  const TernaryPropagator& propagator_;
  const LeakageBounds& bounds_;

  /// Moves gate g's interval endpoints to [lo, hi] in the sums.
  void setInterval(logic::GateId g, double lo, double hi);

  // An endpoint reaches three components of under 1 A each (what plan
  // compilation admits), past the sums' range of 2: they hold a quarter of
  // each, a power-of-two scaling that is exact both ways.
  static constexpr double kScale = 0.25;
  static constexpr double kUnscale = 4.0;

  std::vector<double> cur_min_;  // per gate, current interval
  std::vector<double> cur_max_;
  util::OrderFreeSum<2> sums_;  // lane 0: kScale * cur_min_, 1: cur_max_

  // Undo trail: (gate, previous interval) entries per level; stamp_
  // dedupes gates touched more than once within one push.
  struct Saved {
    logic::GateId gate;
    double min;
    double max;
  };
  std::vector<Saved> trail_;
  std::vector<std::size_t> level_start_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t push_id_ = 0;
};

}  // namespace nanoleak::search
