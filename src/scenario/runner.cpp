#include "scenario/runner.h"

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "circuit/solver_stats.h"
#include "core/estimation_plan.h"
#include "core/golden.h"
#include "obs/trace.h"
#include "search/optimizer.h"
#include "thermal/thermal_sweep.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"

namespace nanoleak::scenario {

namespace {

void addBreakdownMeans(ScenarioResult& out,
                       const device::LeakageBreakdown& sum, double n) {
  out.metrics.push_back({"total_mean_A", sum.total() / n});
  out.metrics.push_back({"sub_mean_A", sum.subthreshold / n});
  out.metrics.push_back({"gate_mean_A", sum.gate / n});
  out.metrics.push_back({"btbt_mean_A", sum.btbt / n});
}

ScenarioResult runMonteCarlo(const Scenario& sc,
                             engine::BatchRunner& runner) {
  engine::McSweep sweep;
  sweep.technology = technologyFor(sc);
  sweep.samples = sc.mc_samples;
  sweep.seed = sc.mc_seed;
  const engine::McBatchResult result = runner.run(sweep);
  const mc::McSummary& s = result.summary;
  ScenarioResult out;
  out.name = sc.name;
  out.metrics = {{"samples", static_cast<double>(sc.mc_samples)},
                 {"mean_with_A", s.mean_with},
                 {"mean_without_A", s.mean_without},
                 {"std_with_A", s.std_with},
                 {"std_without_A", s.std_without},
                 {"mean_shift_pct", s.mean_shift_pct},
                 {"std_shift_pct", s.std_shift_pct},
                 {"max_shift_pct", s.max_shift_pct}};
  return out;
}

ScenarioResult runGolden(const Scenario& sc,
                         const logic::LogicNetlist& netlist,
                         const std::vector<std::vector<bool>>& patterns) {
  const device::Technology tech = technologyFor(sc);
  device::LeakageBreakdown golden_sum;
  double isolated_sum = 0.0;
  std::size_t node_count = 0;
  // Compile the transistor expansion once; repeated vectors re-bind the
  // pattern and warm-start from the previous operating point.
  core::GoldenSolver solver(netlist, tech);
  for (const std::vector<bool>& pattern : patterns) {
    const core::GoldenResult golden = solver.solve(pattern);
    golden_sum += golden.total;
    node_count = golden.node_count;
    isolated_sum +=
        core::isolatedSumLeakage(netlist, tech, pattern).total();
  }
  const double n = static_cast<double>(patterns.size());
  ScenarioResult out;
  out.name = sc.name;
  out.metrics = {
      {"gates", static_cast<double>(netlist.gateCount())},
      {"vectors", n},
      {"node_count", static_cast<double>(node_count)}};
  addBreakdownMeans(out, golden_sum, n);
  const double isolated_mean = isolated_sum / n;
  out.metrics.push_back({"isolated_mean_A", isolated_mean});
  // The paper's headline circuit-level number: loading-aware full solve
  // vs traditional no-loading accumulation.
  out.metrics.push_back(
      {"loading_delta_pct",
       isolated_mean > 0.0
           ? 100.0 * (golden_sum.total() / n - isolated_mean) / isolated_mean
           : 0.0});
  return out;
}

ScenarioResult runEstimate(const Scenario& sc,
                           const logic::LogicNetlist& netlist,
                           const std::vector<std::vector<bool>>& patterns,
                           engine::BatchRunner& runner,
                           engine::PlanCache* plans) {
  const std::shared_ptr<const engine::PlanCache::Entry> entry =
      compiledPlan(sc, netlist, runner, plans);
  const core::EstimationPlan& plan = *entry->plan;

  // Only per-pattern totals are reported, so neither method copies
  // per-gate results out of its workspaces.
  std::vector<device::LeakageBreakdown> totals;
  if (sc.method == Method::kPlanEstimate) {
    totals = runner.runPatternTotals(plan, patterns);
  } else {  // kDeltaWalk: sequential on one warm workspace
    core::EstimationWorkspace ws(plan);
    totals.reserve(patterns.size());
    for (const std::vector<bool>& pattern : patterns) {
      totals.push_back(plan.estimateDeltaTotal(pattern, ws));
    }
  }

  device::LeakageBreakdown sum;
  double total_min = 0.0;
  double total_max = 0.0;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    sum += totals[i];
    const double total = totals[i].total();
    if (i == 0 || total < total_min) total_min = total;
    if (i == 0 || total > total_max) total_max = total;
  }
  const double n = static_cast<double>(totals.size());
  ScenarioResult out;
  out.name = sc.name;
  out.metrics = {{"gates", static_cast<double>(netlist.gateCount())},
                 {"vectors", n}};
  addBreakdownMeans(out, sum, n);
  out.metrics.push_back({"total_min_A", total_min});
  out.metrics.push_back({"total_max_A", total_max});
  return out;
}

ScenarioResult runThermal(const Scenario& sc,
                          const logic::LogicNetlist& netlist,
                          const std::vector<std::vector<bool>>& patterns,
                          engine::BatchRunner& runner) {
  thermal::ThermalSweepOptions options;
  options.grid = {sc.thermal.t_min_k, sc.thermal.t_max_k,
                  sc.thermal.points};
  options.with_loading = sc.with_loading;
  // The base technology's own temperature is ignored: the grid governs.
  const thermal::ThermalSweepEngine engine(technologyForFlavour(sc.flavour),
                                           options);
  const thermal::ThermalCurve curve = engine.run(netlist, patterns, runner);

  ScenarioResult out;
  out.name = sc.name;
  out.metrics = {
      {"gates", static_cast<double>(curve.gates)},
      {"vectors", static_cast<double>(curve.vectors)},
      {"t_points", static_cast<double>(curve.points.size())},
      {"t_min_K", curve.points.front().temperature_k},
      {"t_max_K", curve.points.back().temperature_k}};
  const thermal::ThermalPoint& cold = curve.points.front();
  const thermal::ThermalPoint& hot = curve.points.back();
  out.metrics.push_back({"sub_at_tmin_A", cold.mean.subthreshold});
  out.metrics.push_back({"gate_at_tmin_A", cold.mean.gate});
  out.metrics.push_back({"btbt_at_tmin_A", cold.mean.btbt});
  out.metrics.push_back({"total_at_tmin_A", cold.mean.total()});
  out.metrics.push_back({"sub_at_tmax_A", hot.mean.subthreshold});
  out.metrics.push_back({"gate_at_tmax_A", hot.mean.gate});
  out.metrics.push_back({"btbt_at_tmax_A", hot.mean.btbt});
  out.metrics.push_back({"total_at_tmax_A", hot.mean.total()});
  out.metrics.push_back(
      {"total_tmax_over_tmin",
       cold.mean.total() > 0.0 ? hot.mean.total() / cold.mean.total()
                               : 0.0});
  // Fit metrics in a fixed component order; the exponential rate is the
  // Sultan-style temperature sensitivity, the three max-error columns say
  // which model the component actually follows over this range.
  const std::pair<const char*, const thermal::ModelComparison*> fits[] = {
      {"sub", &curve.subthreshold},
      {"gate", &curve.gate},
      {"btbt", &curve.btbt},
      {"total", &curve.total}};
  for (const auto& [prefix, fit] : fits) {
    const std::string p(prefix);
    out.metrics.push_back({p + "_exp_rate_perK", fit->exponential.rate});
    out.metrics.push_back(
        {p + "_lin_maxerr_pct", 100.0 * fit->linear.error.max_rel});
    out.metrics.push_back(
        {p + "_exp_maxerr_pct", 100.0 * fit->exponential.error.max_rel});
    out.metrics.push_back(
        {p + "_pw_maxerr_pct", 100.0 * fit->piecewise.error.max_rel});
    out.metrics.push_back({p + "_pw_break_K", fit->piecewise.break_t});
  }
  return out;
}

ScenarioResult runOptimize(const Scenario& sc,
                           const logic::LogicNetlist& netlist,
                           engine::BatchRunner& runner,
                           engine::PlanCache* plans) {
  const std::shared_ptr<const engine::PlanCache::Entry> entry =
      compiledPlan(sc, netlist, runner, plans);
  const core::EstimationPlan& plan = *entry->plan;

  search::SearchOptions sopts;
  sopts.objective = sc.optimize.objective;
  sopts.algorithm = sc.optimize.algorithm;
  sopts.budget = sc.optimize.budget;
  sopts.seed = sc.optimize.seed;
  const search::SearchResult r = search::optimizeVector(plan, sopts);

  // The optimum vector packed into two 32-bit halves (source k in bit k,
  // low half first) so golden files pin the bit pattern itself, not just
  // its leakage; sources beyond 64 are not encoded.
  double vec_lo = 0.0;
  double vec_hi = 0.0;
  for (std::size_t i = 0; i < r.vector.size() && i < 64; ++i) {
    if (!r.vector[i]) {
      continue;
    }
    if (i < 32) {
      vec_lo += static_cast<double>(1u << i);
    } else {
      vec_hi += static_cast<double>(1u << (i - 32));
    }
  }

  ScenarioResult out;
  out.name = sc.name;
  out.metrics = {
      {"gates", static_cast<double>(netlist.gateCount())},
      {"sources", static_cast<double>(plan.sourceCount())},
      {"best_total_A", r.total},
      {"best_sub_A", r.leakage.subthreshold},
      {"best_gate_A", r.leakage.gate},
      {"best_btbt_A", r.leakage.btbt},
      {"best_vector_lo32", vec_lo},
      {"best_vector_hi32", vec_hi},
      {"exact", r.exact ? 1.0 : 0.0},
      {"nodes_expanded", static_cast<double>(r.stats.nodes_expanded)},
      {"leaf_evals", static_cast<double>(r.stats.leaf_evals)},
      {"prunes", static_cast<double>(r.stats.prunes)},
      {"restarts", static_cast<double>(r.stats.restarts)},
      {"improvements", static_cast<double>(r.stats.improvements)}};
  return out;
}

}  // namespace

std::shared_ptr<const engine::PlanCache::Entry> compiledPlan(
    const Scenario& sc, const logic::LogicNetlist& netlist,
    engine::BatchRunner& runner, engine::PlanCache* plans) {
  const device::Technology tech = technologyFor(sc);
  core::CharacterizationOptions char_options;
  char_options.solver_path = sc.char_solver_path;
  core::EstimatorOptions options;
  options.with_loading = sc.with_loading;
  engine::PlanCache local;
  engine::PlanCache& cache = plans != nullptr ? *plans : local;
  return cache.get(
      engine::PlanCache::contentKey(netlist, tech, options, char_options),
      [&] {
        FAULT_POINT("plan_cache.build");
        auto entry = std::make_shared<engine::PlanCache::Entry>();
        entry->netlist = std::make_unique<const logic::LogicNetlist>(netlist);
        entry->library = std::make_unique<const core::LeakageLibrary>(
            runner.cache().library(
                tech, core::estimationKinds(*entry->netlist), char_options));
        entry->plan = std::make_unique<const core::EstimationPlan>(
            *entry->netlist, *entry->library, options);
        return std::shared_ptr<const engine::PlanCache::Entry>(
            std::move(entry));
      });
}

const Metric* ScenarioResult::find(const std::string& metric_name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == metric_name) {
      return &metric;
    }
  }
  return nullptr;
}

const ScenarioResult* SuiteResult::find(
    const std::string& scenario_name) const {
  for (const ScenarioResult& result : scenarios) {
    if (result.name == scenario_name) {
      return &result;
    }
  }
  return nullptr;
}

ScenarioResult runScenario(const Scenario& sc, engine::BatchRunner& runner,
                           engine::PlanCache* plans) {
  OBS_SPAN("scenario.run", sc.name);
  const auto start = std::chrono::steady_clock::now();
  const circuit::SolveStats solves_before = circuit::solveStats();
  const obs::Snapshot obs_before = obs::snapshot();

  ScenarioResult result;
  if (sc.method == Method::kMonteCarlo) {
    result = runMonteCarlo(sc, runner);
  } else {
    const logic::LogicNetlist netlist = buildCircuit(sc.circuit);
    if (sc.method == Method::kOptimize) {
      // The search picks its own vectors; the scenario's vector policy
      // does not apply.
      result = runOptimize(sc, netlist, runner, plans);
    } else {
      const std::vector<std::vector<bool>> patterns =
          expandVectors(sc.vectors, netlist.sourceNets().size());
      if (sc.method == Method::kGolden) {
        result = runGolden(sc, netlist, patterns);
      } else if (sc.method == Method::kThermalSweep) {
        result = runThermal(sc, netlist, patterns, runner);
      } else {
        result = runEstimate(sc, netlist, patterns, runner, plans);
      }
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.node_solves = circuit::solveStats().node_solves -
                       solves_before.node_solves;
  result.obs_delta = obs::snapshot().deltaSince(obs_before);
  return result;
}

SuiteResult runSuite(const Registry& registry, const std::string& name,
                     const RunOptions& options) {
  engine::BatchRunner runner(engine::BatchOptions{
      .threads = options.threads, .cache = options.table_cache});
  return runSuiteOn(registry, name, runner, options.plan_cache.get());
}

SuiteResult runSuiteOn(const Registry& registry, const std::string& name,
                       engine::BatchRunner& runner,
                       engine::PlanCache* plans) {
  OBS_SPAN("suite.run", name);
  std::vector<std::string> scenario_names;
  if (registry.hasSuite(name)) {
    scenario_names = registry.suite(name);
  } else if (registry.has(name)) {
    scenario_names = {name};
  } else {
    throw Error("unknown suite or scenario '" + name + "'");
  }
  SuiteResult out;
  out.suite = name;
  out.scenarios.reserve(scenario_names.size());
  for (const std::string& scenario_name : scenario_names) {
    // Deadline safe point between scenarios: a multi-scenario suite past
    // its budget stops before compiling/solving the next scenario.
    util::pollCancel();
    out.scenarios.push_back(
        runScenario(registry.get(scenario_name), runner, plans));
  }
  return out;
}

}  // namespace nanoleak::scenario
