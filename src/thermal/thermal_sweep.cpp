#include "thermal/thermal_sweep.h"

#include <utility>

#include "core/estimation_plan.h"
#include "engine/table_cache.h"
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
  // construction, not at the first run() deep inside a suite.
  (void)options_.grid.temperatures();
  (void)core::Characterizer(base_, options_.characterization);
}

ThermalLibrarySet ThermalSweepEngine::characterize(
    const std::vector<gates::GateKind>& kinds) const {
  ThermalLibrarySet set;
  set.temperatures = options_.grid.temperatures();
  engine::TableCache cache;
  set.libraries = cache.libraries(base_, kinds, set.temperatures,
                                  options_.characterization);
  return set;
}

ThermalCurve ThermalSweepEngine::run(
    const logic::LogicNetlist& netlist,
    const std::vector<std::vector<bool>>& patterns,
    engine::BatchRunner& runner) const {
  require(!patterns.empty(), "ThermalSweepEngine::run: no input patterns");
  OBS_SPAN("thermal.sweep");

  const std::vector<double> temps = options_.grid.temperatures();
  const std::vector<core::LeakageLibrary> libraries =
      runner.cache().libraries(base_, core::estimationKinds(netlist), temps,
                               options_.characterization);

  core::EstimatorOptions estimator_options;
  estimator_options.with_loading = options_.with_loading;

  ThermalCurve curve;
  curve.gates = netlist.gateCount();
  curve.vectors = patterns.size();
  curve.points.reserve(temps.size());

  for (std::size_t t = 0; t < temps.size(); ++t) {
    const core::EstimationPlan plan(netlist, libraries[t], estimator_options);
    const std::vector<device::LeakageBreakdown> totals =
        runner.runPatternTotals(plan, patterns);

    ThermalPoint point;
    point.temperature_k = temps[t];
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
