#include "search/optimizer.h"

#include <bit>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/bounds.h"
#include "search/ternary.h"
#include "util/error.h"

namespace nanoleak::search {

namespace {

struct SearchMetrics {
  obs::Counter nodes = obs::counter("search.nodes_expanded");
  obs::Counter leaf_evals = obs::counter("search.leaf_evals");
  obs::Counter prunes = obs::counter("search.prunes");
  obs::Counter prune_checks = obs::counter("search.prune_checks");
  obs::Counter restarts = obs::counter("search.restarts");
  obs::Counter improvements = obs::counter("search.improvements");
  obs::Counter exact_runs = obs::counter("search.exact_runs");
  obs::Counter heuristic_runs = obs::counter("search.heuristic_runs");
  obs::Counter exhaustive_runs = obs::counter("search.exhaustive_runs");
  // Bound/incumbent ratio at each successful prune; ~1 means the cut was
  // tight, large values mean the subtree was hopeless anyway.
  obs::Histogram tightness = obs::histogram(
      "search.bound_tightness", {1.0, 1.001, 1.01, 1.05, 1.2, 2.0});
};

const SearchMetrics& metrics() {
  static const SearchMetrics m;
  return m;
}

/// Publishes a run's counters into the search.* metrics.
void recordStats(const SearchStats& stats) {
  const SearchMetrics& m = metrics();
  m.nodes.add(stats.nodes_expanded);
  m.leaf_evals.add(stats.leaf_evals);
  m.prunes.add(stats.prunes);
  m.prune_checks.add(stats.prune_checks);
  m.restarts.add(stats.restarts);
  m.improvements.add(stats.improvements);
}

/// Branch-and-bound driver: lexicographic DFS over source assignments
/// with bound-based pruning. Sources branch in index order, false before
/// true, so the first incumbent at any objective value is the
/// lexicographically smallest vector - which makes "prune when the bound
/// cannot strictly beat the incumbent" preserve the tie-break.
class BranchAndBound {
 public:
  BranchAndBound(const core::EstimationPlan& plan, Objective objective)
      : plan_(plan),
        objective_(objective),
        propagator_(plan.netlist()),
        bounds_(plan),
        tracker_(plan, propagator_, bounds_),
        ws_(plan) {
    assignment_.assign(plan.sourceCount(), false);
  }

  SearchResult run() {
    stats_.root_min_bound = tracker_.exactMin();
    stats_.root_max_bound = tracker_.exactMax();
    if (plan_.sourceCount() == 0) {
      evaluateLeaf();
    } else {
      descend(0);
    }
    SearchResult result;
    result.vector = best_vector_;
    result.leakage = best_leakage_;
    result.total = best_total_;
    result.exact = true;
    result.stats = stats_;
    return result;
  }

 private:
  void descend(std::size_t depth) {
    for (const bool v : {false, true}) {
      propagator_.assign(depth, v);
      tracker_.push(propagator_.lastImplied());
      assignment_[depth] = v;
      ++stats_.nodes_expanded;
      if (!shouldPrune()) {
        if (depth + 1 == plan_.sourceCount()) {
          evaluateLeaf();
        } else {
          descend(depth + 1);
        }
      }
      tracker_.pop();
      propagator_.backtrack();
    }
  }

  bool shouldPrune() {
    if (!has_best_) {
      return false;
    }
    // Running-sum screen first; only candidates count as prune checks.
    // (The running and exact sums are one order-free sum, so every
    // candidate is pruned.)
    const bool candidate = objective_ == Objective::kMin
                               ? tracker_.runningMin() >= best_total_
                               : tracker_.runningMax() <= best_total_;
    if (!candidate) {
      return false;
    }
    ++stats_.prune_checks;
    const double bound = objective_ == Objective::kMin ? tracker_.exactMin()
                                                      : tracker_.exactMax();
    const bool prune = objective_ == Objective::kMin ? bound >= best_total_
                                                     : bound <= best_total_;
    if (prune) {
      ++stats_.prunes;
      if (best_total_ != 0.0) {
        const double ratio = objective_ == Objective::kMin
                                 ? bound / best_total_
                                 : best_total_ / bound;
        metrics().tightness.observe(ratio);
      }
    }
    return prune;
  }

  void evaluateLeaf() {
    const device::LeakageBreakdown leakage =
        plan_.estimateDeltaTotal(assignment_, ws_);
    ++stats_.leaf_evals;
    const double total = leakage.total();
    const bool better =
        !has_best_ || (objective_ == Objective::kMin ? total < best_total_
                                                     : total > best_total_);
    if (better) {
      has_best_ = true;
      best_total_ = total;
      best_leakage_ = leakage;
      best_vector_ = assignment_;
      ++stats_.improvements;
    }
  }

  const core::EstimationPlan& plan_;
  Objective objective_;
  TernaryPropagator propagator_;
  LeakageBounds bounds_;
  BoundTracker tracker_;
  core::EstimationWorkspace ws_;
  std::vector<bool> assignment_;
  std::vector<bool> best_vector_;
  device::LeakageBreakdown best_leakage_;
  double best_total_ = 0.0;
  bool has_best_ = false;
  SearchStats stats_;
};

}  // namespace

const char* toString(Objective objective) {
  return objective == Objective::kMin ? "min" : "max";
}

Objective objectiveFromString(const std::string& name) {
  if (name == "min") {
    return Objective::kMin;
  }
  if (name == "max") {
    return Objective::kMax;
  }
  throw Error("unknown objective: " + name + " (expected min or max)");
}

const char* toString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAuto:
      return "auto";
    case Algorithm::kExact:
      return "exact";
    case Algorithm::kHeuristic:
      return "heuristic";
  }
  return "?";
}

Algorithm algorithmFromString(const std::string& name) {
  if (name == "auto") {
    return Algorithm::kAuto;
  }
  if (name == "exact") {
    return Algorithm::kExact;
  }
  if (name == "heuristic") {
    return Algorithm::kHeuristic;
  }
  throw Error("unknown method: " + name +
              " (expected exact, heuristic or auto)");
}

bool lexLess(const std::vector<bool>& a, const std::vector<bool>& b) {
  require(a.size() == b.size(), "lexLess: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return !a[i];
    }
  }
  return false;
}

ExhaustiveResult exhaustiveSearch(const core::EstimationPlan& plan) {
  OBS_SPAN("search.exhaustive");
  metrics().exhaustive_runs.increment();
  const std::size_t n = plan.sourceCount();
  require(n <= 26, "exhaustiveSearch: too many sources (limit 26)");

  core::EstimationWorkspace ws(plan);
  std::vector<bool> pattern(n, false);

  ExhaustiveResult out;
  SearchStats stats;

  auto consider = [&](const device::LeakageBreakdown& leakage) {
    const double total = leakage.total();
    const bool first = stats.leaf_evals == 0;
    if (first || total < out.min.total ||
        (total == out.min.total && lexLess(pattern, out.min.vector))) {
      out.min.total = total;
      out.min.leakage = leakage;
      out.min.vector = pattern;
    }
    if (first || total > out.max.total ||
        (total == out.max.total && lexLess(pattern, out.max.vector))) {
      out.max.total = total;
      out.max.leakage = leakage;
      out.max.vector = pattern;
    }
    ++stats.leaf_evals;
    ++stats.nodes_expanded;
  };

  const std::uint64_t count = std::uint64_t{1} << n;
  // On the cold workspace the first call is a full evaluation.
  consider(plan.estimateDeltaTotal(pattern, ws));
  for (std::uint64_t i = 1; i < count; ++i) {
    // Gray-code walk: step i flips bit ctz(i), so every estimateDelta()
    // re-estimates a single source cone.
    const unsigned bit = static_cast<unsigned>(std::countr_zero(i));
    pattern[bit] = !pattern[bit];
    consider(plan.estimateDeltaTotal(pattern, ws));
  }
  out.min.exact = true;
  out.max.exact = true;
  out.min.stats = stats;
  out.max.stats = stats;
  recordStats(stats);
  return out;
}

SearchResult exactSearch(const core::EstimationPlan& plan,
                         Objective objective) {
  OBS_SPAN("search.exact", toString(objective));
  metrics().exact_runs.increment();
  require(plan.sourceCount() <= 30,
          "exactSearch: too many sources (limit 30); use the heuristic");
  BranchAndBound engine(plan, objective);
  SearchResult result = engine.run();
  recordStats(result.stats);
  return result;
}

SearchResult optimizeVector(const core::EstimationPlan& plan,
                            const SearchOptions& options) {
  switch (options.algorithm) {
    case Algorithm::kExact:
      return exactSearch(plan, options.objective);
    case Algorithm::kHeuristic:
      return heuristicSearch(plan, options);
    case Algorithm::kAuto:
      break;
  }
  if (plan.sourceCount() <= options.exact_source_limit) {
    return exactSearch(plan, options.objective);
  }
  return heuristicSearch(plan, options);
}

namespace internal {

void countHeuristicRun() { metrics().heuristic_runs.increment(); }
void recordHeuristicStats(const SearchStats& stats) { recordStats(stats); }

}  // namespace internal

}  // namespace nanoleak::search
