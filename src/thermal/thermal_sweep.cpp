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

std::vector<double> ThermalGrid::temperatures() const {
  require(points >= 1, "ThermalGrid: points must be >= 1");
  require(points == 1 ? t_max_k >= t_min_k : t_max_k > t_min_k,
          "ThermalGrid: t_max_k must exceed t_min_k");
  std::vector<double> out;
  out.reserve(points);
  if (points == 1) {
    out.push_back(t_min_k);
    return out;
  }
  const double span = t_max_k - t_min_k;
  for (std::size_t i = 0; i + 1 < points; ++i) {
    out.push_back(t_min_k + span * static_cast<double>(i) /
                                static_cast<double>(points - 1));
  }
  out.push_back(t_max_k);  // exact, never (t_min + span * (n-1)/(n-1))
  return out;
}

device::Technology technologyAtTemperature(const device::Technology& base,
                                           double temperature_k) {
  device::Technology tech = base;
  tech.temperature_k = temperature_k;
  return tech;
}

core::LeakageLibrary::Meta libraryMetaAt(const device::Technology& base,
                                         double temperature_k) {
  core::LeakageLibrary::Meta meta;
  meta.technology_name = base.nmos.name + "/" + base.pmos.name;
  meta.vdd = base.vdd;
  meta.temperature_k = temperature_k;
  return meta;
}

namespace {

/// One empty library per temperature of `temperatures`, in order.
ThermalLibrarySet emptyLibrarySet(const device::Technology& base,
                                  std::vector<double> temperatures) {
  ThermalLibrarySet set;
  set.temperatures = std::move(temperatures);
  set.libraries.reserve(set.temperatures.size());
  for (double temperature_k : set.temperatures) {
    set.libraries.emplace_back(libraryMetaAt(base, temperature_k));
  }
  return set;
}

}  // namespace

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
    : base_(std::move(base)),
      options_(std::move(options)),
      characterizer_(base_, options_.characterization) {
  // Validate eagerly so a malformed temperature grid fails at
  // construction, not at the first run() deep inside a suite (the
  // characterizer's constructor has already checked the loading grid).
  (void)options_.grid.temperatures();
}

device::Technology ThermalSweepEngine::technologyAt(
    double temperature_k) const {
  return technologyAtTemperature(base_, temperature_k);
}

ThermalLibrarySet ThermalSweepEngine::characterize(
    const std::vector<gates::GateKind>& kinds) const {
  ThermalLibrarySet set =
      emptyLibrarySet(base_, options_.grid.temperatures());
  for (gates::GateKind kind : kinds) {
    std::vector<std::vector<core::VectorTable>> per_t =
        characterizer_.characterizeKind(kind, set.temperatures);
    for (std::size_t t = 0; t < per_t.size(); ++t) {
      set.libraries[t].insert(kind, std::move(per_t[t]));
    }
  }
  return set;
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
  // product of the temperature axis, whose warm path no single-temperature
  // Characterizer reproduces bit-for-bit, so they must never answer an
  // untagged kindTables()/library() lookup. Under the tag, a repeated
  // sweep at the same (flavour, grid, options) corner set reuses the
  // cached tables and skips characterization entirely. Warm-path tables
  // additionally depend on the WHOLE grid (each temperature
  // continuation-seeds from its predecessor), so the grid is folded into
  // the tag - two sweeps sharing one temperature but differing elsewhere
  // must never alias. Every other path's tables depend on their own
  // temperature only (the key carries the path); a per-temperature tag
  // suffices.
  std::string provenance = "thermal";
  if (options_.characterization.solver_path ==
      core::CharacterizationOptions::SolverPath::kCompiledWarmStart) {
    std::ostringstream tag;
    tag << "thermal-warm|grid:" << std::hexfloat;
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
  ThermalLibrarySet set = emptyLibrarySet(base_, temps);
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
        characterizer_.characterizeKind(kind, temps);
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
