#include "thermal/thermal_sweep.h"

#include <ios>
#include <sstream>
#include <string>
#include <utility>

#include "core/estimation_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace nanoleak::thermal {

std::vector<double> ThermalCurve::temperatures() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const ThermalPoint& point : points) {
    out.push_back(point.temperature_k);
  }
  return out;
}

ThermalSweepEngine::ThermalSweepEngine(device::Technology base,
                                       ThermalSweepOptions options)
    : base_(std::move(base)), options_(std::move(options)) {
  // Validate eagerly so a malformed temperature or loading grid fails at
  // construction, not at the first run() deep inside a suite. The
  // throwaway characterizer runs exactly the loading-grid checks the
  // real one will.
  (void)options_.grid.temperatures();
  (void)ThermalCharacterizer(base_, options_.characterization,
                             options_.mode);
}

device::Technology ThermalSweepEngine::technologyAt(
    double temperature_k) const {
  return technologyAtTemperature(base_, temperature_k);
}

ThermalLibrarySet ThermalSweepEngine::characterize(
    const std::vector<gates::GateKind>& kinds) const {
  const ThermalCharacterizer characterizer(base_, options_.characterization,
                                           options_.mode);
  return characterizer.characterize(kinds, options_.grid);
}

ThermalCurve ThermalSweepEngine::run(
    const logic::LogicNetlist& netlist,
    const std::vector<std::vector<bool>>& patterns,
    engine::BatchRunner& runner) const {
  require(!patterns.empty(), "ThermalSweepEngine::run: no input patterns");
  OBS_SPAN("thermal.sweep");
  static const obs::Counter tables_seeded =
      obs::counter("thermal.tables_seeded");
  static const obs::Counter tables_reused =
      obs::counter("thermal.tables_reused");

  const std::vector<gates::GateKind> kinds = core::estimationKinds(netlist);
  const std::vector<double> temps = options_.grid.temperatures();

  // Thermal entries live under a provenance-tagged key: they are the
  // product of this engine's continuation policy, which no Characterizer
  // path reproduces bit-for-bit, so they must never answer an untagged
  // kindTables()/library() lookup. Under the tag, a repeated sweep at the
  // same (flavour, grid, options) corner set reuses the cached tables and
  // skips characterization entirely. Warm-start tables additionally
  // depend on the WHOLE grid (each temperature continuation-seeds from
  // its predecessor), so the grid is folded into the tag - two sweeps
  // sharing one temperature but differing elsewhere must never alias.
  // Cold tables are seed-independent; a per-temperature tag suffices.
  std::string provenance = "thermal-cold";
  if (options_.mode != ThermalCharacterizer::Mode::kCold) {
    // Warm-start tables depend on the whole continuation chain; batched
    // tables on how the grid partitions into lane groups. Both fold the
    // full grid into the tag so distinct sweeps never alias.
    std::ostringstream tag;
    tag << (options_.mode == ThermalCharacterizer::Mode::kWarmStart
                ? "thermal-warm|grid:"
                : "thermal-batched|grid:")
        << std::hexfloat;
    for (double temperature_k : temps) {
      tag << temperature_k << ',';
    }
    provenance = tag.str();
  }

  // Assemble the per-temperature libraries kind by kind, so a sweep that
  // shares only SOME kinds with earlier sweeps on this runner (e.g. a
  // bigger circuit adding one gate kind) re-characterizes only the
  // missing kinds - warm-start continuation chains are independent per
  // (kind, vector) fixture, so per-kind reuse is exact.
  ThermalLibrarySet set;
  set.temperatures = temps;
  set.libraries.reserve(temps.size());
  for (double temperature_k : temps) {
    set.libraries.emplace_back(libraryMetaAt(base_, temperature_k));
  }
  const ThermalCharacterizer characterizer(base_, options_.characterization,
                                           options_.mode);
  for (gates::GateKind kind : kinds) {
    std::vector<std::shared_ptr<const engine::TableCache::KindTables>>
        cached(temps.size());
    bool all_cached = options_.seed_cache;
    if (all_cached) {
      for (std::size_t t = 0; t < temps.size(); ++t) {
        cached[t] = runner.cache().tryGet(technologyAt(temps[t]), kind,
                                          options_.characterization,
                                          provenance);
        if (cached[t] == nullptr) {
          all_cached = false;
          break;
        }
      }
    }
    if (all_cached) {
      tables_reused.add(temps.size());
      for (std::size_t t = 0; t < temps.size(); ++t) {
        set.libraries[t].insert(kind, *cached[t]);
      }
      continue;
    }
    std::vector<std::vector<core::VectorTable>> per_t =
        characterizer.characterizeKind(kind, temps);
    for (std::size_t t = 0; t < temps.size(); ++t) {
      if (options_.seed_cache) {
        if (runner.cache().insert(technologyAt(temps[t]), kind,
                                  options_.characterization, per_t[t],
                                  provenance)) {
          tables_seeded.increment();
        }
      }
      set.libraries[t].insert(kind, std::move(per_t[t]));
    }
  }

  core::EstimatorOptions estimator_options;
  estimator_options.with_loading = options_.with_loading;

  ThermalCurve curve;
  curve.gates = netlist.gateCount();
  curve.vectors = patterns.size();
  curve.points.reserve(set.temperatures.size());

  for (std::size_t t = 0; t < set.temperatures.size(); ++t) {
    const core::EstimationPlan plan(netlist, set.libraries[t],
                                    estimator_options);
    const std::vector<device::LeakageBreakdown> totals =
        runner.runPatternTotals(plan, patterns);

    ThermalPoint point;
    point.temperature_k = set.temperatures[t];
    device::LeakageBreakdown sum;
    for (std::size_t i = 0; i < totals.size(); ++i) {
      sum += totals[i];
      const double total = totals[i].total();
      if (i == 0 || total < point.total_min) point.total_min = total;
      if (i == 0 || total > point.total_max) point.total_max = total;
    }
    point.mean = sum.scaled(1.0 / static_cast<double>(totals.size()));
    curve.points.push_back(point);
  }

  std::vector<double> component(temps.size());
  auto fitComponent = [&](double device::LeakageBreakdown::* member) {
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
      component[i] = curve.points[i].mean.*member;
    }
    return compareModels(temps, component);
  };
  if (temps.size() >= 2) {
    curve.subthreshold =
        fitComponent(&device::LeakageBreakdown::subthreshold);
    curve.gate = fitComponent(&device::LeakageBreakdown::gate);
    curve.btbt = fitComponent(&device::LeakageBreakdown::btbt);
    std::vector<double> totals(temps.size());
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
      totals[i] = curve.points[i].mean.total();
    }
    curve.total = compareModels(temps, totals);
  }
  return curve;
}

}  // namespace nanoleak::thermal
