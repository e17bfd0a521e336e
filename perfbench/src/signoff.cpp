// `signoff`: corner sign-off at full width.
//
// Each round characterizes cold corners (TableCache::library of every
// generator gate kind at seeded d25s/d25g/d25jn temperatures), runs one
// thermal curve per flavour, a Monte-Carlo population, and golden full
// solves of seeded vectors scored against the estimator. Corners and
// golden vectors run one per CPU at a time; the thermal curves and the
// population run over a runner at full width, so every phase keeps every
// CPU busy. `device`, `circuit`, `core`'s characterizer and golden solver,
// `mc` and `thermal` carry the time; logic simulation and table lookups
// do almost none.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/golden.h"
#include "engine/batch_runner.h"
#include "engine/table_cache.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "scenario/scenario.h"
#include "thermal/thermal_sweep.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace nanoleak;

/// Largest |estimate - golden| / golden per vector that
/// tests/integration/paper_claims_test.cpp accepts.
constexpr double kMaxEstimateErrorPct = 6.5;
/// Per round: cold corners, golden vectors per circuit, Monte-Carlo
/// trials, and thermal grid points and patterns per curve. As many
/// operations finish faster than the corners as slower, so the
/// op-latency median falls in the middle of the corners and p90 among the
/// s5378 golden solves.
constexpr std::size_t kCornersPerRound = 8;
constexpr std::size_t kS1423VectorsPerRound = 4;
constexpr std::size_t kS5378VectorsPerRound = 8;
constexpr std::size_t kMcTrials = 1024;
constexpr std::size_t kThermalPoints = 8;
constexpr std::size_t kThermalPatterns = 8;

const char* const kFlavours[] = {"d25s", "d25g", "d25jn"};

bool finitePositive(double v) { return std::isfinite(v) && v > 0.0; }

struct GoldenCircuit {
  std::string name;
  std::unique_ptr<logic::LogicNetlist> netlist;
  std::unique_ptr<core::EstimationPlan> plan;
  /// One compiled solver per CPU: thread t solves on solvers[t].
  std::vector<std::unique_ptr<core::GoldenSolver>> solvers;
  std::size_t vectors_per_round = 0;
};

class Signoff : public Workload {
 public:
  explicit Signoff(const RunConfig& config) : config_(config) {}

  void setup() override {
    golden_.clear();  // plans reference the library: drop them first
    library_.reset();
    runner_ = std::make_unique<engine::BatchRunner>(
        engine::BatchOptions{.threads = config_.cpus});
    reference_ = scenario::technologyForFlavour("d25s");
    thermal_circuit_ = std::make_unique<logic::LogicNetlist>(logic::c17());

    std::vector<const logic::LogicNetlist*> netlists;
    for (const auto& [name, vectors] :
         {std::pair{"s1423", kS1423VectorsPerRound},
          std::pair{"s5378", kS5378VectorsPerRound}}) {
      GoldenCircuit c;
      c.name = name;
      c.netlist =
          std::make_unique<logic::LogicNetlist>(scenario::buildCircuit(name));
      c.vectors_per_round = vectors;
      netlists.push_back(c.netlist.get());
      golden_.push_back(std::move(c));
    }
    library_ = std::make_unique<core::LeakageLibrary>(
        runner_->cache().library(reference_, estimationKindsOf(netlists)));

    // The first solve expands the circuit to transistors and compiles the
    // solver kernel; later vectors re-bind and warm-start.
    Rng rng(deriveStreamSeed(config_.seed, 0x5e70));
    for (GoldenCircuit& c : golden_) {
      c.plan = std::make_unique<core::EstimationPlan>(*c.netlist, *library_);
      const std::vector<bool> first =
          logic::randomPattern(c.plan->sourceCount(), rng);
      c.solvers.resize(static_cast<std::size_t>(config_.cpus));
      std::vector<std::string> errors(c.solvers.size());
      forEachOnThreads(config_.cpus, c.solvers.size(), [&](std::size_t i, int) {
        try {
          c.solvers[i] =
              std::make_unique<core::GoldenSolver>(*c.netlist, reference_);
          c.solvers[i]->solve(first);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
      for (const std::string& error : errors) {
        if (!error.empty()) throw Error("signoff: first golden solve: " + error);
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

  void finish(Result&) override {
    Result::report("corners_per_s", "corners/s",
                   double(corners_.size()) / corner_phase_s_,
                   corners_.size());
    Result::report("cold corner", "s", corners_, 1.0);
    Result::report("thermal_points_per_s", "points/s",
                   double(thermal_.size() * kThermalPoints) / thermal_.sum(),
                   thermal_.size() * kThermalPoints);
    Result::report("thermal curve", "ms", thermal_, 1e3);
    Result::report("golden_vectors_per_s", "vectors/s",
                   double(golden_times_.size()) / golden_phase_s_,
                   golden_times_.size());
    Result::report("golden solve", "ms", golden_times_, 1e3);
    Result::report("mc_trials_per_s", "trials/s",
                   double(mc_.size() * kMcTrials) / mc_.sum(),
                   mc_.size() * kMcTrials);
    Result::report("mc population", "ms", mc_, 1e3);
    Result::report("est_error_pct", "%", errors_pct_.mean(), errors_pct_.size());
  }

 private:
  /// One round of the fixed mix. Returns the wall time of its timed
  /// phases [s].
  double runRound(std::uint64_t round, Tracer& tracer, Result& result,
                  Samples& ops) {
    Rng rng(deriveStreamSeed(config_.seed, round));
    double total = 0.0;
    // Records the outcomes of a phase run on worker threads.
    auto record = [&](const std::vector<Outcome>& outcomes, Samples& phase) {
      for (const Outcome& o : outcomes) {
        result.attempt();
        phase.add(o.seconds);
        ops.add(o.seconds);
        if (!o.failure.empty()) result.fail(o.failure);
      }
    };

    // Cold corners: a fresh cache per corner, seeded temperatures.
    {
      std::vector<device::Technology> corners;
      for (std::size_t i = 0; i < kCornersPerRound; ++i) {
        device::Technology tech = scenario::technologyForFlavour(
            kFlavours[(round * kCornersPerRound + i) % std::size(kFlavours)]);
        tech.temperature_k = rng.uniform(250.0, 390.0);
        corners.push_back(tech);
      }
      std::vector<Outcome> outcomes(corners.size());
      const Clock::time_point start = Clock::now();
      forEachOnThreads(config_.cpus, corners.size(), [&](std::size_t i, int) {
        outcomes[i] = coldCorner(corners[i], tracer);
      });
      const double phase = secondsSince(start);
      corner_phase_s_ += phase;
      total += phase;
      record(outcomes, corners_);
    }

    // One thermal curve per flavour on a fresh runner, over a seeded grid,
    // so every curve characterizes cold.
    for (const char* flavour : kFlavours) {
      thermal::ThermalSweepOptions options;
      options.grid.t_min_k = rng.uniform(233.0, 253.0);
      options.grid.t_max_k = rng.uniform(378.0, 398.0);
      options.grid.points = kThermalPoints;
      const thermal::ThermalSweepEngine engine(
          scenario::technologyForFlavour(flavour), options);
      const auto patterns = randomPatterns(
          kThermalPatterns, thermal_circuit_->sourceNets().size(), rng);
      engine::BatchRunner runner(engine::BatchOptions{.threads = config_.cpus});
      Outcome o;
      try {
        thermal::ThermalCurve curve;
        o.seconds = tracer.time("thermal.ThermalSweepEngine::run", [&] {
          curve = engine.run(*thermal_circuit_, patterns, runner);
        });
        bool ok = curve.points.size() == kThermalPoints;
        for (const thermal::ThermalPoint& p : curve.points) {
          ok = ok && finitePositive(p.mean.total());
        }
        ok = ok && curve.points.back().mean.total() >
                       curve.points.front().mean.total();
        if (!ok) {
          o.failure = std::string("signoff: thermal curve (") + flavour +
                      ") malformed or not rising with temperature";
        }
      } catch (const std::exception& e) {
        o.failure = std::string("signoff: thermal: ") + e.what();
      }
      total += o.seconds;
      record({o}, thermal_);
    }

    // Monte-Carlo population at the engine's full width.
    {
      engine::McSweep sweep;
      sweep.technology = reference_;
      sweep.samples = kMcTrials;
      sweep.seed = rng.next();
      Outcome o;
      try {
        engine::McBatchResult population;
        o.seconds = tracer.time("mc.McSweep",
                                [&] { population = runner_->run(sweep); });
        if (population.samples.size() != kMcTrials ||
            !finitePositive(population.summary.mean_with) ||
            !finitePositive(population.summary.mean_without)) {
          o.failure = "signoff: Monte-Carlo population malformed";
        }
      } catch (const std::exception& e) {
        o.failure = std::string("signoff: Monte-Carlo: ") + e.what();
      }
      total += o.seconds;
      record({o}, mc_);
    }

    // Golden full solves, each scored against the estimator. Thread t
    // solves on its own compiled solver of each circuit.
    {
      std::vector<std::pair<GoldenCircuit*, std::vector<bool>>> jobs;
      for (GoldenCircuit& c : golden_) {
        for (std::size_t i = 0; i < c.vectors_per_round; ++i) {
          jobs.emplace_back(&c,
                            logic::randomPattern(c.plan->sourceCount(), rng));
        }
      }
      std::vector<Outcome> outcomes(jobs.size());
      std::vector<double> errors_pct(jobs.size(), 0.0);
      const Clock::time_point start = Clock::now();
      forEachOnThreads(config_.cpus, jobs.size(), [&](std::size_t i, int t) {
        const auto& [c, vector] = jobs[i];
        try {
          core::GoldenResult golden;
          outcomes[i].seconds =
              tracer.time("core.GoldenSolver::solve", [&] {
                golden = c->solvers[std::size_t(t)]->solve(vector);
              });
          core::EstimationWorkspace ws(*c->plan);
          const double reference = golden.total.total();
          const double estimate = c->plan->estimate(vector, ws).total.total();
          errors_pct[i] = 100.0 * std::fabs(estimate - reference) / reference;
          if (!finitePositive(reference) ||
              !(errors_pct[i] <= kMaxEstimateErrorPct)) {
            outcomes[i].failure = "signoff: estimate off golden by " +
                                  std::to_string(errors_pct[i]) + "% on " +
                                  c->name;
          }
        } catch (const std::exception& e) {
          outcomes[i].failure =
              "signoff: golden solve on " + c->name + ": " + e.what();
        }
      });
      const double phase = secondsSince(start);
      golden_phase_s_ += phase;
      total += phase;
      record(outcomes, golden_times_);
      for (double e : errors_pct) errors_pct_.add(e);
    }
    return total;
  }

  Outcome coldCorner(const device::Technology& tech, Tracer& tracer) const {
    Outcome o;
    engine::TableCache cache;
    const std::vector<gates::GateKind> kinds = core::generatorGateKinds();
    try {
      core::LeakageLibrary library;
      o.seconds = tracer.time("core.characterize", [&] {
        library = cache.library(tech, kinds);
      });
      bool ok = true;
      for (gates::GateKind kind : kinds) {
        ok = ok && library.has(kind) && !library.tables(kind).empty();
        for (std::size_t v = 0; ok && v < library.tables(kind).size(); ++v) {
          ok = finitePositive(library.table(kind, v).nominal.total());
        }
      }
      if (!ok) o.failure = "signoff: corner library incomplete or not finite";
    } catch (const std::exception& e) {
      o.failure = std::string("signoff: corner: ") + e.what();
    }
    return o;
  }

  const RunConfig config_;
  std::unique_ptr<engine::BatchRunner> runner_;
  device::Technology reference_;
  std::unique_ptr<core::LeakageLibrary> library_;
  std::vector<GoldenCircuit> golden_;
  std::unique_ptr<logic::LogicNetlist> thermal_circuit_;
  std::uint64_t next_round_ = 0;

  Samples corners_;
  double corner_phase_s_ = 0.0;
  Samples thermal_;
  Samples mc_;
  Samples golden_times_;
  double golden_phase_s_ = 0.0;
  Samples errors_pct_;
};

}  // namespace

std::unique_ptr<Workload> makeSignoff(const RunConfig& config) {
  return std::make_unique<Signoff>(config);
}

}  // namespace perfbench
