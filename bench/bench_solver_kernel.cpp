// SolverKernel bench: legacy (interpreted DcSolver) vs compiled kernel vs
// kernel + warm-started continuation vs the kernel's SIMD lane entry point
// (SolverKernel::solveLanes), across the three workloads the kernel
// accelerates:
//  1. full-library characterization (the tentpole target: >= 3x compiled,
//     >= 2x batched-over-scalar-compiled at lane width > 1),
//  2. golden full-circuit re-solves over repeated vectors,
//  3. paired Monte-Carlo trials (legacy rebuild-per-trial vs compiled
//     warm-started fixtures, both through MonteCarloEngine::runSample).
//
// Emits BENCH_solver.json (node-solves/sec and wall-clock per mode, plus
// the configured SIMD backend and lane width) and EXITS NON-ZERO when the
// built-in equivalence checks fail: the compiled cold path must be
// bit-identical to legacy, and warm-started / lane-batched paths must
// agree within solver tolerance. CI runs `bench_solver_kernel --quick` and
// fails the build on a mismatch.
//
// With --obs-overhead it additionally measures the cost of the obs
// instrumentation layer (metrics counters + gated trace spans) on a warm
// golden re-solve loop - tracing off vs coarse tracing, min-of-repeats -
// and fails when the overhead exceeds 3%.
//
// usage: bench_solver_kernel [--quick] [--obs-overhead] [threads]
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "circuit/solver_stats.h"
#include "core/characterizer.h"
#include "core/golden.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "mc/monte_carlo.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/table_writer.h"

namespace {

using nanoleak::TableWriter;
using nanoleak::formatDouble;
using namespace nanoleak;

using Clock = std::chrono::steady_clock;

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

// ---------------------------------------------------------------------------
// 1. Characterization.
// ---------------------------------------------------------------------------

struct CharBench {
  ModeResult legacy;
  ModeResult compiled;
  ModeResult warm;
  ModeResult batched;
  bool compiled_bit_identical = false;
  double warm_max_rel_diff = 0.0;
  double batched_max_rel_diff = 0.0;
};

CharBench benchCharacterization(const device::Technology& tech,
                                const std::vector<gates::GateKind>& kinds,
                                const std::vector<double>& grid,
                                std::vector<Failure>& failures) {
  using SolverPath = core::CharacterizationOptions::SolverPath;
  auto optionsFor = [&](SolverPath path) {
    core::CharacterizationOptions options;
    options.kinds = kinds;
    options.loading_grid = grid;
    options.solver_path = path;
    return options;
  };

  std::vector<std::vector<core::VectorTable>> tables_by_mode;
  CharBench result;
  for (SolverPath path : {SolverPath::kLegacy, SolverPath::kCompiled,
                          SolverPath::kCompiledWarmStart,
                          SolverPath::kBatched}) {
    std::vector<core::VectorTable> tables;
    const ModeResult mode = timed([&] {
      const core::Characterizer chr(tech, optionsFor(path));
      for (gates::GateKind kind : kinds) {
        auto kind_tables = chr.characterizeKind(kind);
        tables.insert(tables.end(),
                      std::make_move_iterator(kind_tables.begin()),
                      std::make_move_iterator(kind_tables.end()));
      }
    });
    tables_by_mode.push_back(std::move(tables));
    switch (path) {
      case SolverPath::kLegacy:
        result.legacy = mode;
        break;
      case SolverPath::kCompiled:
        result.compiled = mode;
        break;
      case SolverPath::kCompiledWarmStart:
        result.warm = mode;
        break;
      case SolverPath::kBatched:
        result.batched = mode;
        break;
    }
  }

  // Equivalence: compiled-cold must reproduce legacy bit-for-bit; warm
  // within solver tolerance.
  result.compiled_bit_identical = true;
  const auto& legacy = tables_by_mode[0];
  const auto& compiled = tables_by_mode[1];
  const auto& warm = tables_by_mode[2];
  for (std::size_t v = 0; v < legacy.size(); ++v) {
    if (legacy[v].subthreshold.values() != compiled[v].subthreshold.values() ||
        legacy[v].gate.values() != compiled[v].gate.values() ||
        legacy[v].btbt.values() != compiled[v].btbt.values()) {
      result.compiled_bit_identical = false;
      failures.push_back({"characterization: compiled table " +
                          std::to_string(v) + " differs from legacy"});
      break;
    }
  }
  for (std::size_t v = 0; v < legacy.size(); ++v) {
    const auto& a = legacy[v];
    const auto& b = warm[v];
    for (std::size_t i = 0; i < a.subthreshold.values().size(); ++i) {
      result.warm_max_rel_diff = std::max(
          {result.warm_max_rel_diff,
           relDiff(a.subthreshold.values()[i], b.subthreshold.values()[i]),
           relDiff(a.gate.values()[i], b.gate.values()[i]),
           relDiff(a.btbt.values()[i], b.btbt.values()[i])});
    }
  }
  if (result.warm_max_rel_diff > 1e-6) {
    failures.push_back(
        {"characterization: warm-start tables drift " +
         formatDouble(result.warm_max_rel_diff, 12) + " > 1e-6 from legacy"});
  }
  const auto& batched = tables_by_mode[3];
  for (std::size_t v = 0; v < legacy.size(); ++v) {
    const auto& a = legacy[v];
    const auto& b = batched[v];
    for (std::size_t i = 0; i < a.subthreshold.values().size(); ++i) {
      result.batched_max_rel_diff = std::max(
          {result.batched_max_rel_diff,
           relDiff(a.subthreshold.values()[i], b.subthreshold.values()[i]),
           relDiff(a.gate.values()[i], b.gate.values()[i]),
           relDiff(a.btbt.values()[i], b.btbt.values()[i])});
    }
  }
  if (result.batched_max_rel_diff > 1e-6) {
    failures.push_back(
        {"characterization: lane-batched tables drift " +
         formatDouble(result.batched_max_rel_diff, 12) +
         " > 1e-6 from legacy"});
  }
  return result;
}

// ---------------------------------------------------------------------------
// 2. Golden re-solves.
// ---------------------------------------------------------------------------

struct GoldenBenchRow {
  std::string name;
  std::size_t gates = 0;
  std::size_t vectors = 0;
  ModeResult legacy;
  ModeResult warm;
  double max_rel_diff = 0.0;
};

GoldenBenchRow benchGolden(const std::string& name,
                           const logic::LogicNetlist& netlist,
                           std::size_t vectors,
                           const device::Technology& tech,
                           std::vector<Failure>& failures) {
  GoldenBenchRow row;
  row.name = name;
  row.gates = netlist.gateCount();
  row.vectors = vectors;

  const logic::LogicSimulator sim(netlist);
  Rng rng(1234);
  std::vector<std::vector<bool>> patterns;
  patterns.reserve(vectors);
  for (std::size_t i = 0; i < vectors; ++i) {
    patterns.push_back(logic::randomPattern(sim.sourceCount(), rng));
  }

  std::vector<double> legacy_totals;
  row.legacy = timed([&] {
    for (const auto& pattern : patterns) {
      legacy_totals.push_back(
          core::goldenLeakage(netlist, tech, pattern).total.total());
    }
  });

  std::vector<double> warm_totals;
  row.warm = timed([&] {
    core::GoldenSolver solver(netlist, tech);
    for (const auto& pattern : patterns) {
      warm_totals.push_back(solver.solve(pattern).total.total());
    }
  });

  for (std::size_t i = 0; i < vectors; ++i) {
    row.max_rel_diff =
        std::max(row.max_rel_diff, relDiff(legacy_totals[i], warm_totals[i]));
  }
  if (row.max_rel_diff > 1e-6) {
    failures.push_back({"golden re-solve (" + name + "): warm totals drift " +
                        formatDouble(row.max_rel_diff, 12) + " > 1e-6"});
  }
  return row;
}

// ---------------------------------------------------------------------------
// 3. Monte-Carlo trials.
// ---------------------------------------------------------------------------

struct McBench {
  std::size_t samples = 0;
  ModeResult legacy;
  ModeResult compiled;
  double max_rel_diff = 0.0;
};

McBench benchMonteCarlo(const device::Technology& tech, std::size_t samples,
                        std::vector<Failure>& failures) {
  McBench result;
  result.samples = samples;
  const mc::VariationSigmas sigmas;
  const auto population = [&](const mc::MonteCarloEngine& engine) {
    std::vector<mc::McSample> out;
    out.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      out.push_back(engine.runSample(97, i));
    }
    return out;
  };

  mc::MonteCarloEngine legacy(tech, sigmas);
  legacy.setUseCompiledFixtures(false);
  std::vector<mc::McSample> legacy_samples;
  result.legacy = timed([&] { legacy_samples = population(legacy); });

  // Compiled path: one warm-started solve per trial on pooled fixtures.
  const mc::MonteCarloEngine compiled(tech, sigmas);
  std::vector<mc::McSample> compiled_samples;
  result.compiled = timed([&] { compiled_samples = population(compiled); });

  for (std::size_t i = 0; i < samples; ++i) {
    result.max_rel_diff =
        std::max({result.max_rel_diff,
                  relDiff(legacy_samples[i].with_loading.total(),
                          compiled_samples[i].with_loading.total()),
                  relDiff(legacy_samples[i].without_loading.total(),
                          compiled_samples[i].without_loading.total())});
  }
  if (result.max_rel_diff > 1e-6) {
    failures.push_back({"monte-carlo: compiled trials drift " +
                        formatDouble(result.max_rel_diff, 12) + " > 1e-6"});
  }
  return result;
}

// ---------------------------------------------------------------------------
// 4. Observability overhead (--obs-overhead).
// ---------------------------------------------------------------------------

struct ObsOverhead {
  double off_seconds = 0.0;  ///< min-of-repeats, tracing disabled
  double on_seconds = 0.0;   ///< min-of-repeats, coarse tracing enabled

  double overheadPct() const {
    return off_seconds > 0.0
               ? 100.0 * (on_seconds - off_seconds) / off_seconds
               : 0.0;
  }
};

/// Times a warm golden re-solve loop (the hottest instrumented path:
/// every solve crosses the solver_stats counters and the gated span
/// checks) with tracing off and with coarse tracing on. Min-of-repeats
/// filters scheduler noise; the same pattern set is used throughout so
/// both modes do bit-identical work.
ObsOverhead benchObsOverhead(const device::Technology& tech,
                             std::size_t vectors, int repeats,
                             std::vector<Failure>& failures) {
  const logic::LogicNetlist netlist = logic::c17();
  const logic::LogicSimulator sim(netlist);
  Rng rng(4321);
  std::vector<std::vector<bool>> patterns;
  patterns.reserve(vectors);
  for (std::size_t i = 0; i < vectors; ++i) {
    patterns.push_back(logic::randomPattern(sim.sourceCount(), rng));
  }
  {
    // Warm up tables and allocator before timing.
    core::GoldenSolver solver(netlist, tech);
    for (const auto& pattern : patterns) {
      (void)solver.solve(pattern);
    }
  }

  const auto timedSolve = [](core::GoldenSolver& solver,
                             const std::vector<bool>& pattern) {
    const auto t0 = Clock::now();
    (void)solver.solve(pattern);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // Each repeat runs the pattern set on two solvers, one with tracing off
  // and one with coarse tracing on, taking turns per pattern (which side
  // goes first alternates too), and sums each side's solve times.
  // Stretches of fast or slow machine, which on a shared VM last longer
  // than a whole repeat, so land on both sides alike instead of deciding
  // the gate. Both solvers solve the same sequence, and they swap sides
  // every repeat, so a memory layout that favours one favours both sides.
  // Each side keeps its minimum over the repeats.
  core::GoldenSolver solvers[2] = {core::GoldenSolver(netlist, tech),
                                   core::GoldenSolver(netlist, tech)};
  ObsOverhead result;
  result.off_seconds = std::numeric_limits<double>::infinity();
  result.on_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    core::GoldenSolver& off_solver = solvers[r % 2];
    core::GoldenSolver& on_solver = solvers[1 - r % 2];
    double off = 0.0;
    double on = 0.0;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      for (int turn = 0; turn < 2; ++turn) {
        if ((turn == 0) == (i % 2 == 0)) {
          obs::disableTracing();
          off += timedSolve(off_solver, patterns[i]);
        } else {
          // A fresh session per traced solve keeps the trace buffers from
          // growing across the probe.
          obs::enableTracing(obs::TraceLevel::kCoarse);
          on += timedSolve(on_solver, patterns[i]);
        }
      }
    }
    result.off_seconds = std::min(result.off_seconds, off);
    result.on_seconds = std::min(result.on_seconds, on);
  }
  obs::disableTracing();

  if (result.overheadPct() > 3.0) {
    failures.push_back(
        {"obs overhead: coarse tracing costs " +
         formatDouble(result.overheadPct(), 2) + "% > 3% on the warm "
         "golden re-solve loop"});
  }
  return result;
}

void printModeTable(const std::string& title,
                    const std::vector<std::pair<std::string, ModeResult>>&
                        modes,
                    double baseline_seconds) {
  nanoleak::bench::banner(title);
  TableWriter table(
      {"mode", "wall [s]", "node solves", "node-solves/s", "speedup"});
  for (const auto& [name, mode] : modes) {
    table.addRow({name, formatDouble(mode.seconds, 3),
                  std::to_string(mode.node_solves),
                  formatDouble(mode.nodeSolvesPerSec(), 0),
                  formatDouble(baseline_seconds /
                                   std::max(1e-12, mode.seconds),
                               2)});
  }
  table.printText(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool obs_overhead = false;
  std::vector<char*> rest;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--obs-overhead") == 0) {
      obs_overhead = true;
    } else {
      rest.push_back(argv[i]);
    }
  }

  const device::Technology tech = device::defaultTechnology();
  const std::vector<gates::GateKind> kinds =
      quick ? std::vector<gates::GateKind>{gates::GateKind::kInv,
                                           gates::GateKind::kNand4,
                                           gates::GateKind::kNor2}
            : core::generatorGateKinds();
  const std::vector<double> grid =
      quick ? std::vector<double>{0.0, 0.5e-6, 2.0e-6, 6.0e-6}
            : core::CharacterizationOptions{}.loading_grid;
  const std::size_t golden_vectors = quick ? 6 : 20;
  const std::size_t mc_samples = quick ? 24 : 200;

  std::vector<Failure> failures;

  std::cout << "bench_solver_kernel (" << (quick ? "quick" : "full")
            << " workload)\n"
            << "simd backend: " << util::backendName() << ", lane width "
            << util::kNativeLaneWidth << "\n";

  // 1. Characterization: the full-library tentpole measurement.
  const CharBench chr = benchCharacterization(tech, kinds, grid, failures);
  printModeTable("Characterization: " + std::to_string(kinds.size()) +
                     " kinds, " + std::to_string(grid.size()) + "^2 grid",
                 {{"legacy (DcSolver)", chr.legacy},
                  {"kernel (cold)", chr.compiled},
                  {"kernel + warm-start", chr.warm},
                  {"batched (lane-parallel)", chr.batched}},
                 chr.legacy.seconds);
  std::cout << "kernel bit-identical to legacy: "
            << (chr.compiled_bit_identical ? "yes" : "NO") << "\n"
            << "warm-start max rel diff vs legacy: "
            << formatDouble(chr.warm_max_rel_diff, 12) << "\n"
            << "batched max rel diff vs legacy: "
            << formatDouble(chr.batched_max_rel_diff, 12) << "\n";

  // 2. Golden re-solves over INV-chain / NAND-tree / generator circuits.
  nanoleak::bench::banner("Golden full-circuit re-solves (random vectors)");
  std::vector<GoldenBenchRow> golden_rows;
  golden_rows.push_back(benchGolden("inv_chain16", logic::inverterChain(16),
                                    golden_vectors, tech, failures));
  golden_rows.push_back(benchGolden("c17", logic::c17(), golden_vectors,
                                    tech, failures));
  golden_rows.push_back(benchGolden("rca8", logic::rippleCarryAdder(8),
                                    golden_vectors, tech, failures));
  if (!quick) {
    golden_rows.push_back(benchGolden("mult5", logic::arrayMultiplier(5),
                                      golden_vectors, tech, failures));
  }
  {
    TableWriter table({"circuit", "gates", "vectors", "legacy [s]",
                       "compiled+warm [s]", "speedup", "max rel diff"});
    for (const GoldenBenchRow& row : golden_rows) {
      table.addRow(
          {row.name, std::to_string(row.gates), std::to_string(row.vectors),
           formatDouble(row.legacy.seconds, 3),
           formatDouble(row.warm.seconds, 3),
           formatDouble(row.legacy.seconds /
                            std::max(1e-12, row.warm.seconds),
                        2),
           formatDouble(row.max_rel_diff, 12)});
    }
    table.printText(std::cout);
  }

  // 3. Monte-Carlo paired trials.
  const McBench mcb = benchMonteCarlo(tech, mc_samples, failures);
  printModeTable("Monte-Carlo paired trials (" +
                     std::to_string(mc_samples) + " samples)",
                 {{"legacy (rebuild/trial)", mcb.legacy},
                  {"compiled + warm-start", mcb.compiled}},
                 mcb.legacy.seconds);
  std::cout << "max rel diff vs legacy: "
            << formatDouble(mcb.max_rel_diff, 12) << "\n";

  // 4. Observability overhead (opt-in: timing probes add bench time).
  ObsOverhead obs;
  if (obs_overhead) {
    obs = benchObsOverhead(tech, /*vectors=*/100, /*repeats=*/61, failures);
    nanoleak::bench::banner("Observability overhead (warm golden re-solves)");
    TableWriter table({"tracing", "wall [s] (min of repeats)"});
    table.addRow({"off", formatDouble(obs.off_seconds, 4)});
    table.addRow({"coarse", formatDouble(obs.on_seconds, 4)});
    table.printText(std::cout);
    std::cout << "obs overhead: " << formatDouble(obs.overheadPct(), 2)
              << "% (gate: < 3%)\n";
  }

  const double char_speedup =
      chr.legacy.seconds / std::max(1e-12, chr.warm.seconds);
  // The lane-parallel acceptance ratio: batched vs the scalar compiled
  // path doing the same work (the warm-started characterization scan).
  const double char_batched_vs_warm =
      chr.warm.seconds / std::max(1e-12, chr.batched.seconds);

  // BENCH_solver.json.
  std::ostringstream json;
  json << "{\n  \"workload\": \"solver_kernel\",\n  \"quick\": "
       << (quick ? "true" : "false") << ",\n  \"simd_backend\": \""
       << util::backendName() << "\",\n  \"lane_width\": "
       << util::kNativeLaneWidth << ",\n";
  auto emitMode = [&](const char* name, const ModeResult& mode,
                      bool trailing_comma) {
    json << "      {\"mode\": \"" << name << "\", \"wall_s\": "
         << formatDouble(mode.seconds, 4) << ", \"node_solves\": "
         << mode.node_solves << ", \"node_solves_per_s\": "
         << formatDouble(mode.nodeSolvesPerSec(), 0) << "}"
         << (trailing_comma ? "," : "") << "\n";
  };
  json << "  \"characterization\": {\n    \"kinds\": " << kinds.size()
       << ",\n    \"grid\": " << grid.size() << ",\n    \"modes\": [\n";
  emitMode("legacy", chr.legacy, true);
  emitMode("kernel", chr.compiled, true);
  emitMode("kernel_warm", chr.warm, true);
  emitMode("batched", chr.batched, false);
  json << "    ],\n    \"speedup_kernel\": "
       << formatDouble(chr.legacy.seconds /
                           std::max(1e-12, chr.compiled.seconds),
                       3)
       << ",\n    \"speedup_kernel_warm\": " << formatDouble(char_speedup, 3)
       << ",\n    \"speedup_batched_vs_warm\": "
       << formatDouble(char_batched_vs_warm, 3)
       << ",\n    \"kernel_bit_identical\": "
       << (chr.compiled_bit_identical ? "true" : "false")
       << ",\n    \"warm_max_rel_diff\": "
       << formatDouble(chr.warm_max_rel_diff, 12)
       << ",\n    \"batched_max_rel_diff\": "
       << formatDouble(chr.batched_max_rel_diff, 12) << "\n  },\n";
  json << "  \"golden\": [\n";
  for (std::size_t i = 0; i < golden_rows.size(); ++i) {
    const GoldenBenchRow& row = golden_rows[i];
    json << "    {\"circuit\": \"" << row.name << "\", \"gates\": "
         << row.gates << ", \"vectors\": " << row.vectors
         << ", \"legacy_s\": " << formatDouble(row.legacy.seconds, 4)
         << ", \"warm_s\": " << formatDouble(row.warm.seconds, 4)
         << ", \"speedup\": "
         << formatDouble(row.legacy.seconds /
                             std::max(1e-12, row.warm.seconds),
                         3)
         << ", \"max_rel_diff\": " << formatDouble(row.max_rel_diff, 12)
         << "}" << (i + 1 < golden_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"monte_carlo\": {\n    \"samples\": " << mcb.samples
       << ",\n    \"legacy_s\": " << formatDouble(mcb.legacy.seconds, 4)
       << ",\n    \"compiled_s\": " << formatDouble(mcb.compiled.seconds, 4)
       << ",\n    \"speedup\": "
       << formatDouble(mcb.legacy.seconds /
                           std::max(1e-12, mcb.compiled.seconds),
                       3)
       << ",\n    \"max_rel_diff\": " << formatDouble(mcb.max_rel_diff, 12)
       << "\n  },\n";
  if (obs_overhead) {
    json << "  \"obs_overhead_pct\": " << formatDouble(obs.overheadPct(), 3)
         << ",\n";
  }
  json << "  \"equivalence_failures\": " << failures.size() << "\n}\n";
  const std::string out_path = nanoleak::bench::outPath("BENCH_solver.json");
  std::ofstream out(out_path);
  if (out) {
    out << json.str();
    std::cout << "\nwrote " << out_path << "\n";
  } else {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }

  std::cout << "\ncharacterization speedup (kernel+warm vs legacy): "
            << formatDouble(char_speedup, 2) << "x (target >= 3x on the "
            << "full workload)\n"
            << "lane-parallel characterization speedup vs the scalar "
            << "warm scan: " << formatDouble(char_batched_vs_warm, 2)
            << "x (target >= 2x at lane width > 1)\n";

  if (!failures.empty()) {
    std::cerr << "\nEQUIVALENCE FAILURES:\n";
    for (const Failure& failure : failures) {
      std::cerr << "  " << failure.what << "\n";
    }
    return 1;
  }
  return 0;
}
