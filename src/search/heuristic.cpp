// Heuristic sleep-vector engine: greedy bound-guided construction plus
// restart-based local search with an activity-scored input heap.
//
// Determinism contract: the sequence of candidate vectors the engine
// evaluates is a pure function of (plan, seed) - restart r draws from
// deriveStreamSeed(seed, r) and nothing reads the budget except the
// stop condition. A larger budget therefore evaluates a strict superset
// (prefix extension) of the candidates of a smaller one, which makes the
// best-found objective monotone non-worsening in the budget - a property
// the metamorphic tests pin. The static impact scores that order the
// greedy pass and seed the activity heap depend only on each source's
// fanout cone (see staticImpact).

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
    OBS_SPAN("search.greedy");
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
