// Thermal sweep bench: how much core::Characterizer's temperature axis -
// fixture reuse plus temperature-continuation warm starts - buys over
// per-temperature fresh characterization, across three modes:
//  1. fresh/cold  - a new core::Characterizer per temperature, compiled
//                   kernels, cold seeds (the reference),
//  2. reuse/cold  - the temperature axis on the kCompiled path: fixtures
//                   compiled once, coefficients re-bound per temperature,
//                   cold seeds. MUST be bit-identical to mode 1 (the
//                   DeviceCoeffs re-bind-at-T equivalence),
//  3. reuse/warm  - the axis on the kCompiledWarmStart path (the thermal
//                   sweep default): adds the temperature-continuation
//                   seeds. Must agree with mode 1 within solver tolerance.
//
// Emits bench/out/BENCH_thermal.json (wall-clock, node solves and
// throughput per mode, plus the equivalence outcomes) and EXITS NON-ZERO
// when an equivalence check fails: reuse/cold not bit-identical, or
// reuse/warm drifting beyond 1e-6 relative. CI runs
// `bench_thermal --quick` and fails the build on a mismatch.
//
// Also prints one end-to-end ThermalSweepEngine curve (circuit leakage vs
// T with the per-component model fits) so the bench doubles as a smoke
// run of the full subsystem.
//
// usage: bench_thermal [--quick]
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "circuit/solver_stats.h"
#include "core/characterizer.h"
#include "engine/batch_runner.h"
#include "scenario/scenario.h"
#include "thermal/thermal_sweep.h"
#include "util/table_writer.h"

namespace {

using nanoleak::TableWriter;
using nanoleak::formatDouble;
using namespace nanoleak;

using Clock = std::chrono::steady_clock;
using PerTemperatureTables = std::vector<std::vector<core::VectorTable>>;

struct ModeResult {
  double seconds = 0.0;
  std::uint64_t node_solves = 0;

  double nodeSolvesPerSec() const {
    return seconds > 0.0 ? static_cast<double>(node_solves) / seconds : 0.0;
  }
};

template <typename Fn>
ModeResult timed(Fn&& fn) {
  const circuit::SolveStats before = circuit::solveStats();
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  const circuit::SolveStats after = circuit::solveStats();
  return {std::chrono::duration<double>(t1 - t0).count(),
          after.node_solves - before.node_solves};
}

double relDiff(double a, double b) {
  const double denom = std::max({std::abs(a), std::abs(b), 1e-30});
  return std::abs(a - b) / denom;
}

struct Failure {
  std::string what;
};

/// Fresh per-temperature characterization, compiled kernels, cold seeds:
/// the reference the temperature-axis modes are gated against. Layout
/// matches the axis (Characterizer::characterizeKind(kind, temperatures)):
/// result[kind][t][vec].
std::vector<PerTemperatureTables> freshColdTables(
    const device::Technology& base,
    const std::vector<gates::GateKind>& kinds,
    const std::vector<double>& temperatures,
    const core::CharacterizationOptions& base_options) {
  std::vector<PerTemperatureTables> out(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    out[k].resize(temperatures.size());
  }
  for (std::size_t t = 0; t < temperatures.size(); ++t) {
    device::Technology tech = base;
    tech.temperature_k = temperatures[t];
    core::CharacterizationOptions options = base_options;
    options.solver_path =
        core::CharacterizationOptions::SolverPath::kCompiled;
    const core::Characterizer chr(tech, options);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      out[k][t] = chr.characterizeKind(kinds[k]);
    }
  }
  return out;
}

bool bitIdentical(const core::VectorTable& a, const core::VectorTable& b) {
  if (a.subthreshold.values() != b.subthreshold.values() ||
      a.gate.values() != b.gate.values() ||
      a.btbt.values() != b.btbt.values() ||
      a.pin_current != b.pin_current ||
      a.isolated_nominal.total() != b.isolated_nominal.total() ||
      a.pin_current_grid.size() != b.pin_current_grid.size()) {
    return false;
  }
  // The pin-current surfaces feed iterative propagation and are part of
  // the seeded cache entries - a stale-rebind bug there must fail the
  // gate too.
  for (std::size_t pin = 0; pin < a.pin_current_grid.size(); ++pin) {
    if (a.pin_current_grid[pin].values() !=
        b.pin_current_grid[pin].values()) {
      return false;
    }
  }
  return true;
}

double maxRelDiff(const core::VectorTable& a, const core::VectorTable& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.subthreshold.values().size(); ++i) {
    worst = std::max(
        {worst, relDiff(a.subthreshold.values()[i], b.subthreshold.values()[i]),
         relDiff(a.gate.values()[i], b.gate.values()[i]),
         relDiff(a.btbt.values()[i], b.btbt.values()[i])});
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "warning: ignoring unknown argument '" << argv[i]
                << "'\n";
    }
  }

  const device::Technology base = device::defaultTechnology();
  const std::vector<gates::GateKind> kinds =
      quick ? std::vector<gates::GateKind>{gates::GateKind::kInv,
                                           gates::GateKind::kNand2}
            : std::vector<gates::GateKind>{
                  gates::GateKind::kInv, gates::GateKind::kNand2,
                  gates::GateKind::kNand4, gates::GateKind::kNor2,
                  gates::GateKind::kXor2};
  core::CharacterizationOptions char_options;
  if (quick) {
    char_options.loading_grid = {0.0, 0.5e-6, 2.0e-6, 6.0e-6};
  }
  thermal::ThermalGrid grid;
  grid.t_min_k = 233.0;
  grid.t_max_k = 398.0;
  grid.points = quick ? 5 : 8;
  const std::vector<double> temperatures = grid.temperatures();

  std::vector<Failure> failures;

  std::cout << "bench_thermal (" << (quick ? "quick" : "full")
            << " workload): " << kinds.size() << " kinds, "
            << char_options.loading_grid.size() << "^2 loading grid, "
            << temperatures.size() << " temperatures "
            << formatDouble(grid.t_min_k, 0) << "-"
            << formatDouble(grid.t_max_k, 0) << " K\n";

  // Mode 1: fresh per-temperature characterization (reference).
  std::vector<PerTemperatureTables> fresh;
  const ModeResult fresh_mode = timed([&] {
    fresh = freshColdTables(base, kinds, temperatures, char_options);
  });

  // Modes 2 and 3: the temperature axis, one fixture per (kind, vector).
  const auto axisTables = [&](core::CharacterizationOptions::SolverPath path) {
    core::CharacterizationOptions options = char_options;
    options.solver_path = path;
    const core::Characterizer chr(base, options);
    std::vector<PerTemperatureTables> out;
    for (gates::GateKind kind : kinds) {
      out.push_back(chr.characterizeKind(kind, temperatures));
    }
    return out;
  };

  // Mode 2: fixture reuse, cold seeds - must be bit-identical to fresh.
  std::vector<PerTemperatureTables> reuse_cold;
  const ModeResult reuse_cold_mode = timed([&] {
    reuse_cold =
        axisTables(core::CharacterizationOptions::SolverPath::kCompiled);
  });

  // Mode 3: fixture reuse + temperature continuation.
  std::vector<PerTemperatureTables> reuse_warm;
  const ModeResult reuse_warm_mode = timed([&] {
    reuse_warm = axisTables(
        core::CharacterizationOptions::SolverPath::kCompiledWarmStart);
  });

  bool cold_bit_identical = true;
  double warm_max_rel_diff = 0.0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::size_t t = 0; t < temperatures.size(); ++t) {
      for (std::size_t v = 0; v < fresh[k][t].size(); ++v) {
        if (!bitIdentical(fresh[k][t][v], reuse_cold[k][t][v])) {
          if (cold_bit_identical) {
            failures.push_back(
                {"reuse/cold tables not bit-identical to fresh (kind " +
                 std::string(gates::toString(kinds[k])) + ", T " +
                 formatDouble(temperatures[t], 1) + " K, vector " +
                 std::to_string(v) + ")"});
          }
          cold_bit_identical = false;
        }
        warm_max_rel_diff = std::max(
            warm_max_rel_diff, maxRelDiff(fresh[k][t][v], reuse_warm[k][t][v]));
      }
    }
  }
  if (warm_max_rel_diff > 1e-6) {
    failures.push_back({"reuse/warm tables drift " +
                        formatDouble(warm_max_rel_diff, 12) +
                        " > 1e-6 from fresh"});
  }

  nanoleak::bench::banner("Thermal-grid characterization");
  TableWriter table(
      {"mode", "wall [s]", "node solves", "node-solves/s", "speedup"});
  const auto addMode = [&](const char* name, const ModeResult& mode) {
    table.addRow({name, formatDouble(mode.seconds, 3),
                  std::to_string(mode.node_solves),
                  formatDouble(mode.nodeSolvesPerSec(), 0),
                  formatDouble(fresh_mode.seconds /
                                   std::max(1e-12, mode.seconds),
                               2)});
  };
  addMode("fresh per-T (cold)", fresh_mode);
  addMode("reuse (cold)", reuse_cold_mode);
  addMode("reuse + T-continuation", reuse_warm_mode);
  table.printText(std::cout);
  std::cout << "reuse/cold bit-identical to fresh: "
            << (cold_bit_identical ? "yes" : "NO") << "\n"
            << "reuse/warm max rel diff vs fresh: "
            << formatDouble(warm_max_rel_diff, 12) << "\n";

  // End-to-end smoke: one circuit curve through the full engine.
  nanoleak::bench::banner("ThermalSweepEngine end-to-end (c17 x d25s)");
  thermal::ThermalSweepOptions sweep_options;
  sweep_options.grid = grid;
  sweep_options.characterization.loading_grid = char_options.loading_grid;
  const thermal::ThermalSweepEngine engine(base, sweep_options);
  engine::BatchRunner runner;
  const logic::LogicNetlist netlist = scenario::buildCircuit("c17");
  const std::vector<std::vector<bool>> patterns = scenario::expandVectors(
      scenario::VectorPolicy::random(quick ? 6 : 16, 20050307),
      netlist.sourceNets().size());
  thermal::ThermalCurve curve;
  const ModeResult sweep_mode =
      timed([&] { curve = engine.run(netlist, patterns, runner); });
  TableWriter curve_table({"T [K]", "total [A]", "sub share [%]"});
  for (const thermal::ThermalPoint& point : curve.points) {
    curve_table.addRow(
        {formatDouble(point.temperature_k, 1),
         formatDouble(point.mean.total() * 1e6, 4) + "e-6",
         formatDouble(100.0 * point.mean.subthreshold /
                          std::max(1e-30, point.mean.total()),
                      1)});
  }
  curve_table.printText(std::cout);
  std::cout << "best model: total " << curve.total.bestModel()
            << " (linear max err "
            << formatDouble(100.0 * curve.total.linear.error.max_rel, 1)
            << "%), sweep wall " << formatDouble(sweep_mode.seconds, 3)
            << " s\n";

  const double warm_speedup =
      fresh_mode.seconds / std::max(1e-12, reuse_warm_mode.seconds);

  // BENCH_thermal.json.
  std::ostringstream json;
  json << "{\n  \"workload\": \"thermal\",\n  \"quick\": "
       << (quick ? "true" : "false") << ",\n  \"kinds\": " << kinds.size()
       << ",\n  \"grid\": " << char_options.loading_grid.size()
       << ",\n  \"temperatures\": " << temperatures.size()
       << ",\n  \"t_min_k\": " << formatDouble(grid.t_min_k, 1)
       << ",\n  \"t_max_k\": " << formatDouble(grid.t_max_k, 1)
       << ",\n  \"modes\": [\n";
  const auto emitMode = [&](const char* name, const ModeResult& mode,
                            bool trailing_comma) {
    json << "    {\"mode\": \"" << name << "\", \"wall_s\": "
         << formatDouble(mode.seconds, 4) << ", \"node_solves\": "
         << mode.node_solves << ", \"node_solves_per_s\": "
         << formatDouble(mode.nodeSolvesPerSec(), 0) << "}"
         << (trailing_comma ? "," : "") << "\n";
  };
  emitMode("fresh_cold", fresh_mode, true);
  emitMode("reuse_cold", reuse_cold_mode, true);
  emitMode("reuse_warm", reuse_warm_mode, false);
  json << "  ],\n  \"speedup_reuse_cold\": "
       << formatDouble(fresh_mode.seconds /
                           std::max(1e-12, reuse_cold_mode.seconds),
                       3)
       << ",\n  \"speedup_reuse_warm\": " << formatDouble(warm_speedup, 3)
       << ",\n  \"cold_bit_identical\": "
       << (cold_bit_identical ? "true" : "false")
       << ",\n  \"warm_max_rel_diff\": "
       << formatDouble(warm_max_rel_diff, 12)
       << ",\n  \"sweep\": {\n    \"circuit\": \"c17\", \"vectors\": "
       << patterns.size() << ", \"wall_s\": "
       << formatDouble(sweep_mode.seconds, 4)
       << ",\n    \"total_best_model\": \"" << curve.total.bestModel()
       << "\", \"total_lin_maxerr_pct\": "
       << formatDouble(100.0 * curve.total.linear.error.max_rel, 3)
       << "\n  },\n  \"equivalence_failures\": " << failures.size()
       << "\n}\n";
  const std::string out_path = nanoleak::bench::outPath("BENCH_thermal.json");
  std::ofstream out(out_path);
  if (out) {
    out << json.str();
    std::cout << "\nwrote " << out_path << "\n";
  } else {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }

  std::cout << "\nthermal characterization speedup (reuse+continuation vs "
               "fresh per-T): "
            << formatDouble(warm_speedup, 2) << "x\n";

  if (!failures.empty()) {
    std::cerr << "\nEQUIVALENCE FAILURES:\n";
    for (const Failure& failure : failures) {
      std::cerr << "  " << failure.what << "\n";
    }
    return 1;
  }
  return 0;
}
