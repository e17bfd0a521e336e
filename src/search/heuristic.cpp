// Heuristic sleep-vector engine: greedy bound-guided construction plus
// restart-based local search with an activity-scored input heap.
//
// Determinism contract: the sequence of candidate vectors the engine
// evaluates is a pure function of (plan, seed) - restart r draws from
// deriveStreamSeed(seed, r) and nothing reads the budget except the
// stop condition. A larger budget therefore evaluates a strict superset
// (prefix extension) of the candidates of a smaller one, which makes the
// best-found objective monotone non-worsening in the budget - a property
// the metamorphic tests pin.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "search/activity_heap.h"
#include "search/bounds.h"
#include "search/optimizer.h"
#include "search/ternary.h"
#include "util/error.h"
#include "util/rng.h"

namespace nanoleak::search {

namespace internal {
void countHeuristicRun();
void recordHeuristicStats(const SearchStats& stats);
}  // namespace internal

namespace {

/// Static impact score of one source: the total bound-interval width of
/// every gate in its fanout cone - a measure of how much circuit leakage
/// that input can move. Seeds both the greedy assignment order and the
/// local-search activity scores.
std::vector<double> staticImpact(const core::EstimationPlan& plan,
                                 const LeakageBounds& bounds) {
  const logic::LogicNetlist& netlist = plan.netlist();
  const std::size_t gates = netlist.gateCount();
  const std::size_t nets = netlist.netCount();

  // Flat copies of what the walks read: each gate's bound width over all
  // its vectors and its output net, and the fanout gates of every net in
  // netlist.fanout() order (a gate once per pin on the net).
  std::vector<double> width(gates);
  std::vector<logic::NetId> output(gates);
  for (logic::GateId g = 0; g < gates; ++g) {
    const logic::Gate& gate = netlist.gate(g);
    const std::size_t nv = std::size_t{1} << gate.inputs.size();
    const std::uint32_t all = nv >= 32 ? 0xffffffffu : ((1u << nv) - 1u);
    width[g] = bounds.maskMax(g, all) - bounds.maskMin(g, all);
    output[g] = gate.output;
  }
  std::vector<std::size_t> fanout_offset(nets + 1, 0);
  std::vector<logic::GateId> fanout_gate;
  for (logic::NetId net = 0; net < nets; ++net) {
    for (const logic::PinRef& ref : netlist.fanout(net)) {
      fanout_gate.push_back(ref.gate);
    }
    fanout_offset[net + 1] = fanout_gate.size();
  }

  // Depth-first walk of each source's cone, summing widths in visit
  // order. Walk s marks what it has seen with stamp s + 1, so no walk
  // clears the marks of the one before.
  const std::vector<logic::NetId> sources = netlist.sourceNets();
  std::vector<double> impact(sources.size(), 0.0);
  std::vector<std::size_t> gate_seen(gates, 0);
  std::vector<std::size_t> net_seen(nets, 0);
  std::vector<logic::NetId> frontier;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const std::size_t stamp = s + 1;
    frontier.assign(1, sources[s]);
    net_seen[sources[s]] = stamp;
    double sum = 0.0;
    while (!frontier.empty()) {
      const logic::NetId net = frontier.back();
      frontier.pop_back();
      for (std::size_t k = fanout_offset[net]; k < fanout_offset[net + 1];
           ++k) {
        const logic::GateId g = fanout_gate[k];
        if (gate_seen[g] == stamp) {
          continue;
        }
        gate_seen[g] = stamp;
        sum += width[g];
        if (net_seen[output[g]] != stamp) {
          net_seen[output[g]] = stamp;
          frontier.push_back(output[g]);
        }
      }
    }
    impact[s] = sum;
  }
  return impact;
}

/// One heuristic run's mutable state.
class HeuristicEngine {
 public:
  HeuristicEngine(const core::EstimationPlan& plan,
                  const SearchOptions& options)
      : plan_(plan),
        options_(options),
        bounds_(plan),
        impact_(staticImpact(plan, bounds_)),
        activity_(impact_),
        ws_(plan) {}

  SearchResult run() {
    const std::size_t n = plan_.sourceCount();
    if (n == 0 || options_.budget == 0) {
      // Degenerate cases: a single evaluation of the all-false vector
      // (and for n == 0 the only vector there is).
      std::vector<bool> pattern(n, false);
      evaluate(pattern);
      return finish();
    }

    const std::vector<bool> greedy = greedyConstruct();
    const std::size_t stall_limit = std::max<std::size_t>(8, 2 * n);

    std::uint64_t restart = 0;
    while (stats_.leaf_evals < options_.budget) {
      Rng rng(deriveStreamSeed(options_.seed, restart));
      std::vector<bool> pattern =
          restart == 0 ? greedy : randomPattern(n, rng);
      double current = evaluate(pattern);
      ++stats_.restarts;
      std::size_t stall = 0;
      while (stall < stall_limit && stats_.leaf_evals < options_.budget) {
        const std::size_t bit = pickBit(rng);
        pattern[bit] = !pattern[bit];
        const double moved = evaluate(pattern);
        const bool accept = options_.objective == Objective::kMin
                                ? moved < current
                                : moved > current;
        if (accept) {
          current = moved;
          stall = 0;
          bumpActivity(bit);
        } else {
          pattern[bit] = !pattern[bit];
          ++stall;
        }
      }
      ++restart;
    }
    return finish();
  }

 private:
  /// Assigns sources in impact order, picking for each the value with the
  /// more promising circuit bound (no leakage evaluations spent).
  std::vector<bool> greedyConstruct() {
    const std::size_t n = plan_.sourceCount();
    TernaryPropagator propagator(plan_.netlist());
    BoundTracker tracker(plan_, propagator, bounds_);
    stats_.root_min_bound = tracker.exactMin();
    stats_.root_max_bound = tracker.exactMax();
    ActivityHeap order(impact_);
    std::vector<bool> pattern(n, false);
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t s = order.pop();
      double score[2];
      for (const bool v : {false, true}) {
        propagator.assign(s, v);
        tracker.push(propagator.lastImplied());
        score[v ? 1 : 0] = options_.objective == Objective::kMin
                               ? tracker.runningMin()
                               : tracker.runningMax();
        tracker.pop();
        propagator.backtrack();
      }
      // Pick the value whose optimistic bound is better; ties take false
      // so the construction is deterministic.
      const bool pick = options_.objective == Objective::kMin
                            ? score[1] < score[0]
                            : score[1] > score[0];
      pattern[s] = pick;
      propagator.assign(s, pick);
      tracker.push(propagator.lastImplied());
    }
    return pattern;
  }

  std::vector<bool> randomPattern(std::size_t n, Rng& rng) {
    std::vector<bool> pattern(n);
    for (std::size_t i = 0; i < n; ++i) {
      pattern[i] = rng.bernoulli(0.5);
    }
    return pattern;
  }

  /// Flip-bit policy: half the draws exploit the highest-activity input,
  /// the rest explore uniformly.
  std::size_t pickBit(Rng& rng) {
    if (rng.bernoulli(0.5)) {
      return activity_.top();
    }
    return static_cast<std::size_t>(
        rng.uniformInt(plan_.sourceCount()));
  }

  void bumpActivity(std::size_t bit) {
    activity_.bump(bit, bump_);
    bump_ *= 1.05;  // Geometric growth = exponential decay of old scores.
    if (bump_ > 1e100) {
      activity_.rescale(1e-100);
      bump_ *= 1e-100;
    }
  }

  double evaluate(const std::vector<bool>& pattern) {
    const device::LeakageBreakdown leakage =
        plan_.estimateDeltaTotal(pattern, ws_);
    ++stats_.leaf_evals;
    ++stats_.nodes_expanded;
    const double total = leakage.total();
    const bool better =
        !has_best_ ||
        (options_.objective == Objective::kMin ? total < best_total_
                                               : total > best_total_) ||
        (total == best_total_ && lexLess(pattern, best_vector_));
    if (better) {
      has_best_ = true;
      best_total_ = total;
      best_leakage_ = leakage;
      best_vector_ = pattern;
      ++stats_.improvements;
    }
    return total;
  }

  SearchResult finish() {
    SearchResult result;
    result.vector = best_vector_;
    result.leakage = best_leakage_;
    result.total = best_total_;
    result.exact = false;
    result.stats = stats_;
    return result;
  }

  const core::EstimationPlan& plan_;
  const SearchOptions& options_;
  LeakageBounds bounds_;
  std::vector<double> impact_;
  ActivityHeap activity_;
  core::EstimationWorkspace ws_;
  std::vector<bool> best_vector_;
  device::LeakageBreakdown best_leakage_;
  double best_total_ = 0.0;
  bool has_best_ = false;
  double bump_ = 1.0;
  SearchStats stats_;
};

}  // namespace

SearchResult heuristicSearch(const core::EstimationPlan& plan,
                             const SearchOptions& options) {
  OBS_SPAN("search.heuristic", toString(options.objective));
  internal::countHeuristicRun();
  HeuristicEngine engine(plan, options);
  SearchResult result = engine.run();
  internal::recordHeuristicStats(result.stats);
  return result;
}

}  // namespace nanoleak::search
