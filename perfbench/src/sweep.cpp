// `sweep`: the paper's Fig. 12 pattern estimation at full engine width.
//
// Set-up characterizes one corner for every circuit, synthesizes the
// large seeded circuit and compiles the plans; the timed rounds then do
// table-lookup work only - random batches through
// engine::BatchRunner::runPatterns, one 1-bit walk per CPU through
// core::EstimationPlan::estimateDelta, and sleep-vector searches - so
// `logic`, `core`'s estimator, `engine`'s pool and `search` carry the
// time while `device` and `circuit` do none.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "engine/batch_runner.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "scenario/scenario.h"
#include "search/optimizer.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace nanoleak;

/// Gate-patterns per roster circuit per round: pattern counts are
/// inversely proportional to gate count, so each roster circuit takes a
/// similar share of a round.
constexpr double kGatePatternsPerBatch = 1 << 19;
/// runPatterns hands out 32-pattern chunks; a batch of at least this many
/// chunks per thread keeps every thread fed (this sets the large circuit's
/// batch, whose gate-patterns exceed the roster share).
constexpr std::size_t kPatternChunk = 32;
/// Sampled patterns of each batch re-estimated for the output check.
constexpr std::size_t kChecksPerBatch = 2;
/// 1-bit-flip walk steps per walker per round, and how often one is
/// checked.
constexpr std::size_t kWalkSteps = 2000;
constexpr std::size_t kWalkCheckEvery = 250;
/// Heuristic search evaluation budget.
constexpr std::size_t kHeuristicBudget = 64;

struct Circuit {
  std::string name;
  std::unique_ptr<logic::LogicNetlist> netlist;
  std::unique_ptr<core::EstimationPlan> plan;
  /// Patterns per round (0 = not part of the pattern batches).
  std::size_t batch = 0;
};

/// One 1-bit-flip walk through EstimationPlan::estimateDelta.
struct Walker {
  Walker(const core::EstimationPlan& plan, std::vector<bool> start,
         std::uint64_t seed)
      : pattern(std::move(start)), ws(plan), rng(seed) {
    plan.estimate(pattern, ws, out);
  }

  /// kWalkSteps timed steps; every kWalkCheckEvery-th state is copied.
  void walk(const core::EstimationPlan& plan, Tracer& tracer) {
    for (std::size_t step = 0; step < kWalkSteps; ++step) {
      const std::size_t bit = rng.uniformInt(pattern.size());
      pattern[bit] = !pattern[bit];
      try {
        steps.add(tracer.time("core.estimateDelta",
                              [&] { plan.estimateDelta(pattern, ws, out); }));
      } catch (const std::exception& e) {
        failures.push_back(std::string("sweep: walk step: ") + e.what());
        return;
      }
      if (step % kWalkCheckEvery == kWalkCheckEvery - 1) {
        checkpoints.emplace_back(pattern, out);
      }
    }
  }

  /// Compares every checkpoint with a full estimate of its pattern.
  void verify(const core::EstimationPlan& plan) {
    core::EstimationWorkspace check_ws(plan);
    for (const auto& [state, expected] : checkpoints) {
      if (!sameEstimate(expected, plan.estimate(state, check_ws))) {
        failures.push_back("sweep: walk step differs from a full estimate");
      }
    }
  }

  std::vector<bool> pattern;
  core::EstimationWorkspace ws;
  core::EstimateResult out;
  Rng rng;
  Samples steps;
  std::vector<std::pair<std::vector<bool>, core::EstimateResult>> checkpoints;
  std::vector<std::string> failures;
};

class Sweep : public Workload {
 public:
  explicit Sweep(const RunConfig& config) : config_(config) {}

  void setup() override {
    circuits_.clear();  // plans reference the library: drop them first
    library_.reset();
    runner_ = std::make_unique<engine::BatchRunner>(
        engine::BatchOptions{.threads = config_.cpus});

    for (const std::string& name : scenario::fig12CircuitNames()) {
      addCircuit(name, scenario::buildCircuit(name));
    }
    addCircuit("large", logic::synthesizeIscasLike(
                            largeSyntheticSpec(),
                            deriveStreamSeed(config_.seed, 0x1a26e)));
    addCircuit("rca8", scenario::buildCircuit("rca8"));

    std::vector<const logic::LogicNetlist*> netlists;
    for (const Circuit& c : circuits_) netlists.push_back(c.netlist.get());
    library_ = std::make_unique<core::LeakageLibrary>(runner_->cache().library(
        scenario::technologyForFlavour("d25s"), estimationKindsOf(netlists)));

    const std::size_t min_batch =
        kPatternChunk * static_cast<std::size_t>(config_.cpus);
    for (Circuit& c : circuits_) {
      c.plan = std::make_unique<core::EstimationPlan>(*c.netlist, *library_);
      if (c.name != "rca8") {
        const auto share = static_cast<std::size_t>(std::llround(
            kGatePatternsPerBatch / double(c.netlist->gateCount())));
        c.batch = c.name == "large" ? min_batch : std::max(min_batch, share);
      }
    }
  }

  PhaseTimes run(double seconds, Tracer& tracer, Result& result) override {
    PhaseTimes times;
    double timed = 0.0;
    do {
      const double round = runRound(next_round_++, tracer, result, times.ops);
      times.rounds.add(round);
      timed += round;
    } while (timed < seconds);
    return times;
  }

  void finish(Result& result) override {
    // The exact engine must agree with exhaustive enumeration.
    const core::EstimationPlan& plan = *find("rca8").plan;
    result.attempt();
    try {
      const search::ExhaustiveResult oracle = search::exhaustiveSearch(plan);
      const search::SearchResult min =
          search::exactSearch(plan, search::Objective::kMin);
      const search::SearchResult max =
          search::exactSearch(plan, search::Objective::kMax);
      result.check(min.vector == oracle.min.vector &&
                       min.total == oracle.min.total &&
                       max.vector == oracle.max.vector &&
                       max.total == oracle.max.total,
                   "sweep: exactSearch differs from exhaustiveSearch on rca8");
    } catch (const std::exception& e) {
      result.fail(std::string("sweep: exhaustive check threw: ") + e.what());
    }

    Result::report("patterns_per_s", "patterns/s",
                   double(patterns_) / batches_.sum(), batches_.size());
    Result::report("runPatterns batch", "ms", batches_, 1e3);
    Result::report("walk_steps_per_s", "steps/s",
                   double(steps_.size()) / walk_phase_s_, steps_.size());
    Result::report("walk step", "us", steps_, 1e6);
    Result::report("searches_per_s", "searches/s",
                   double(searches_.size()) / search_phase_s_,
                   searches_.size());
    Result::report("search", "ms", searches_, 1e3);
  }

 private:
  void addCircuit(const std::string& name, logic::LogicNetlist netlist) {
    Circuit c;
    c.name = name;
    c.netlist = std::make_unique<logic::LogicNetlist>(std::move(netlist));
    circuits_.push_back(std::move(c));
  }

  const Circuit& find(const std::string& name) const {
    for (const Circuit& c : circuits_) {
      if (c.name == name) return c;
    }
    throw std::logic_error("sweep: no circuit " + name);
  }

  /// One round: every batch, the walks, the search set. Returns the sum of
  /// its timed calls and phases [s].
  double runRound(std::uint64_t round, Tracer& tracer, Result& result,
                  Samples& ops) {
    Rng rng(deriveStreamSeed(config_.seed, round));
    double total = 0.0;

    for (const Circuit& c : circuits_) {
      if (c.batch == 0) continue;
      const auto patterns =
          randomPatterns(c.batch, c.plan->sourceCount(), rng);
      result.attempt();
      try {
        std::vector<core::EstimateResult> results;
        const double seconds = tracer.time("engine.runPatterns", [&] {
          results = runner_->runPatterns(*c.plan, patterns);
        });
        batches_.add(seconds);
        ops.add(seconds);
        total += seconds;
        patterns_ += patterns.size();
        core::EstimationWorkspace ws(*c.plan);
        bool same = results.size() == patterns.size();
        for (std::size_t k = 0; same && k < kChecksPerBatch; ++k) {
          const std::size_t i = rng.uniformInt(patterns.size());
          same = sameEstimate(results[i], c.plan->estimate(patterns[i], ws));
        }
        result.check(same, "sweep: runPatterns differs from estimate on " +
                               c.name);
      } catch (const std::exception& e) {
        result.fail("sweep: runPatterns on " + c.name + ": " + e.what());
      }
    }

    // 1-bit-flip walks on s13207, one per CPU, each from its own seeded
    // start. Checkpoints are copied during the walk and compared with a
    // full estimate after it, outside the timed phase.
    const core::EstimationPlan& walk_plan = *find("s13207").plan;
    std::vector<std::unique_ptr<Walker>> walkers;
    for (int w = 0; w < config_.cpus; ++w) {
      std::vector<bool> start =
          logic::randomPattern(walk_plan.sourceCount(), rng);
      const std::uint64_t seed = rng.next();
      walkers.push_back(
          std::make_unique<Walker>(walk_plan, std::move(start), seed));
    }
    const Clock::time_point walk_start = Clock::now();
    forEachOnThreads(config_.cpus, walkers.size(), [&](std::size_t w, int) {
      walkers[w]->walk(walk_plan, tracer);
    });
    const double walk_phase = secondsSince(walk_start);
    walk_phase_s_ += walk_phase;
    total += walk_phase;
    forEachOnThreads(config_.cpus, walkers.size(), [&](std::size_t w, int) {
      walkers[w]->verify(walk_plan);
    });
    for (const auto& walker : walkers) {
      result.attempt(kWalkSteps);
      steps_.addAll(walker->steps);
      ops.addAll(walker->steps);
      for (const std::string& why : walker->failures) result.fail(why);
    }

    // The search set, one search per CPU at a time: a heuristic search on
    // s13207 per CPU (each with its own seed), then exact min/max searches
    // on rca8 and an exact min search on mult88.
    struct Search {
      const char* circuit;
      search::SearchOptions options;
      search::SearchResult found;
      Outcome outcome;
    };
    std::vector<Search> searches;
    auto add = [&](const char* circuit, search::Algorithm algorithm,
                   search::Objective objective) {
      Search s;
      s.circuit = circuit;
      s.options.algorithm = algorithm;
      s.options.objective = objective;
      s.options.budget = kHeuristicBudget;
      s.options.seed = rng.next();
      searches.push_back(std::move(s));
    };
    for (int t = 0; t < config_.cpus; ++t) {
      add("s13207", search::Algorithm::kHeuristic, search::Objective::kMin);
    }
    add("rca8", search::Algorithm::kExact, search::Objective::kMin);
    add("rca8", search::Algorithm::kExact, search::Objective::kMax);
    add("mult88", search::Algorithm::kExact, search::Objective::kMin);
    const Clock::time_point search_start = Clock::now();
    forEachOnThreads(config_.cpus, searches.size(), [&](std::size_t i, int) {
      Search& s = searches[i];
      try {
        s.outcome.seconds = tracer.time("search.optimizeVector", [&] {
          s.found = search::optimizeVector(*find(s.circuit).plan, s.options);
        });
      } catch (const std::exception& e) {
        s.outcome.failure =
            std::string("sweep: search on ") + s.circuit + ": " + e.what();
      }
    });
    const double search_phase = secondsSince(search_start);
    search_phase_s_ += search_phase;
    total += search_phase;
    for (Search& s : searches) {
      result.attempt();
      searches_.add(s.outcome.seconds);
      ops.add(s.outcome.seconds);
      if (!s.outcome.failure.empty()) {
        result.fail(s.outcome.failure);
        continue;
      }
      const core::EstimationPlan& plan = *find(s.circuit).plan;
      core::EstimationWorkspace search_ws(plan);
      result.check(
          s.found.vector.size() == plan.sourceCount() &&
              s.found.exact ==
                  (s.options.algorithm == search::Algorithm::kExact) &&
              s.found.total ==
                  plan.estimate(s.found.vector, search_ws).total.total(),
          std::string("sweep: search result on ") + s.circuit +
              " does not match its own estimate");
    }
    return total;
  }

  const RunConfig config_;
  std::unique_ptr<engine::BatchRunner> runner_;
  std::unique_ptr<core::LeakageLibrary> library_;
  /// The Fig. 12 roster, the large synthetic, and rca8 (search only).
  std::vector<Circuit> circuits_;
  std::uint64_t next_round_ = 0;

  Samples batches_;
  std::uint64_t patterns_ = 0;
  Samples steps_;
  double walk_phase_s_ = 0.0;
  Samples searches_;
  double search_phase_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> makeSweep(const RunConfig& config) {
  return std::make_unique<Sweep>(config);
}

}  // namespace perfbench
