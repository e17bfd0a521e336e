// Scenario execution: runs registry scenarios through the sweep engine
// and reduces each one to a flat, canonically ordered metric list - the
// unit the golden framework serializes and diffs.
//
// Determinism contract: a SuiteResult is a pure function of (registry
// definitions, code); thread count never changes a bit. Pattern sweeps go
// through BatchRunner::runPatternTotals (bit-identical at any thread count by
// construction), Monte-Carlo populations use counter-seeded per-sample
// streams, golden solves and delta walks run sequentially, and every
// aggregation below sums in fixed vector order on the calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/plan_cache.h"
#include "obs/metrics.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"

namespace nanoleak::scenario {

/// One named value of a scenario result.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// Canonical result of one scenario: metrics in a fixed, method-defined
/// order (see runScenario).
struct ScenarioResult {
  std::string name;
  std::vector<Metric> metrics;

  /// Execution diagnostics (NOT metrics: never serialized into golden
  /// files, never compared by the checker - `nanoleak run --time` prints
  /// them so suite-level perf regressions are visible without benches).
  double wall_seconds = 0.0;
  /// Scalar node solves the scenario triggered (0 for table-driven
  /// estimates once their corner is cached).
  std::uint64_t node_solves = 0;
  /// Registry activity attributed to this scenario: the obs snapshot
  /// delta across its execution (scenarios run sequentially, so the
  /// attribution is exact). Diagnostics like wall_seconds - never part
  /// of golden serialization or comparison.
  obs::Snapshot obs_delta;

  /// Pointer to a metric by name, or nullptr when absent.
  const Metric* find(const std::string& metric_name) const;
};

/// Results of a whole suite, in suite order.
struct SuiteResult {
  std::string suite;
  std::vector<ScenarioResult> scenarios;

  const ScenarioResult* find(const std::string& scenario_name) const;
};

struct RunOptions {
  /// Engine concurrency (total, including the caller); 0 = hardware.
  int threads = 0;
  /// Characterization cache to run on; null (the default) gives the call
  /// a private cache. The serve daemon passes its shared service here so
  /// every request memoizes corners jointly.
  std::shared_ptr<engine::TableCache> table_cache = nullptr;
  /// Compiled-plan cache; null (the default) gives each estimate and
  /// optimize scenario a call-local one (the one-shot behaviour).
  std::shared_ptr<engine::PlanCache> plan_cache = nullptr;
};

/// The compiled (netlist, library, plan) entry for `sc`'s corner, loading
/// option and characterization solver path, looked up by content key in
/// `plans` - or, when the caller passes none, in a call-local cache. The
/// estimate and optimize scenarios and `nanoleak optimize` all plan
/// through here, so a daemon answering from its shared cache, a one-shot
/// `nanoleak run` and the optimize command match byte for byte: each
/// compiles the same plan from identical inputs. Tables come from
/// `runner.cache()`.
std::shared_ptr<const engine::PlanCache::Entry> compiledPlan(
    const Scenario& sc, const logic::LogicNetlist& netlist,
    engine::BatchRunner& runner, engine::PlanCache* plans = nullptr);

/// Executes one scenario on the given runner (sharing its table cache
/// across scenarios makes repeated corners characterize once). A
/// non-null `plans` additionally memoizes the compiled EstimationPlan of
/// estimate and optimize scenarios by content key - results are
/// bit-identical with and without it (a null `plans` compiles through a
/// call-local cache with the same builder; a shared one only skips
/// recompilation).
ScenarioResult runScenario(const Scenario& sc, engine::BatchRunner& runner,
                           engine::PlanCache* plans = nullptr);

/// Executes a suite - or, when `name` names a single scenario, that
/// scenario as a suite of one. Throws nanoleak::Error for unknown names.
SuiteResult runSuite(const Registry& registry, const std::string& name,
                     const RunOptions& options = {});

/// runSuite on an existing runner: the serve executors own one runner
/// each (ThreadPool does not admit concurrent controllers) and pass the
/// shared caches through it. Same determinism contract as runSuite.
SuiteResult runSuiteOn(const Registry& registry, const std::string& name,
                       engine::BatchRunner& runner,
                       engine::PlanCache* plans = nullptr);

}  // namespace nanoleak::scenario
