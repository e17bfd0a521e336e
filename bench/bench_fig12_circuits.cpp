// Fig. 12: circuit-level evaluation on the paper's benchmark suite
// (ISCAS89-shaped synthetics + the exact mult88/alu88 reconstructions).
//
//  (a) total leakage: golden full solve ("SPICE") vs the Fig. 13 estimator,
//      with the wall-clock of each and their ratio (Sec. 6: the table
//      estimator is orders of magnitude faster than the full solve)
//  (b) average % leakage variation due to loading, per component
//  (c) maximum % variation over the random-vector set
//
// Pattern-sweep throughput (full, block and incremental estimation at
// scale) is perfbench's sweep workload, not this bench's.
//
// Usage: bench_fig12_circuits [vectors]   (default 100, the paper's count;
// golden cross-checks always use 3 vectors per circuit)
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/golden.h"
#include "logic/logic_sim.h"
#include "scenario/scenario.h"
#include "util/rng.h"
#include "util/table_writer.h"
#include "util/units.h"

using namespace nanoleak;
using Clock = std::chrono::steady_clock;

namespace {

struct Row {
  std::string name;
  std::size_t gates;
  double golden_ua = 0.0;
  double estimated_ua = 0.0;
  double error_pct = 0.0;
  double golden_ms = 0.0;
  double estimate_ms = 0.0;
  device::LeakageBreakdown avg_delta_pct;  // loading vs isolated, percent
  double avg_total_pct = 0.0;
  device::LeakageBreakdown max_delta_pct;
  double max_total_pct = 0.0;
};

double pct(double now, double base) {
  return base > 0.0 ? 100.0 * (now - base) / base : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t vectors = bench::sampleCount(argc, argv, 100);
  const device::Technology tech = device::defaultTechnology();

  std::cout << "Characterizing leakage library..." << std::flush;
  core::CharacterizationOptions copts;
  copts.kinds = core::generatorGateKinds();
  const auto t_char0 = Clock::now();
  const core::LeakageLibrary lib =
      core::Characterizer(tech, copts).characterize();
  const auto t_char1 = Clock::now();
  std::cout << " done ("
            << formatDouble(std::chrono::duration<double, std::milli>(
                                t_char1 - t_char0)
                                .count(),
                            0)
            << " ms, one-time cost)\n";

  // The roster lives in the scenario registry (scenario::fig12CircuitNames
  // is the single source of truth for the paper's circuit table).
  struct Bench {
    std::string name;
    logic::LogicNetlist netlist;
  };
  std::vector<Bench> benches;
  for (const std::string& name : scenario::fig12CircuitNames()) {
    benches.push_back({name, scenario::buildCircuit(name)});
  }

  std::vector<Row> rows;
  Rng rng(12);
  for (Bench& bench : benches) {
    Row row;
    row.name = bench.name;
    row.gates = bench.netlist.gateCount();
    const core::EstimationPlan with(bench.netlist, lib);
    core::EstimatorOptions off;
    off.with_loading = false;
    const core::EstimationPlan without(bench.netlist, lib, off);
    core::EstimationWorkspace with_ws(with);
    core::EstimationWorkspace without_ws(without);
    core::EstimateResult est;

    // (a) golden vs estimated on a few vectors (the golden side is the
    // expensive full nonlinear solve).
    const int golden_vectors = 3;
    double golden_sum = 0.0;
    double est_sum = 0.0;
    for (int i = 0; i < golden_vectors; ++i) {
      const auto vec = logic::randomPattern(with.sourceCount(), rng);
      const auto g0 = Clock::now();
      const core::GoldenResult golden =
          core::goldenLeakage(bench.netlist, tech, vec);
      const auto g1 = Clock::now();
      with.estimate(vec, with_ws, est);
      const auto g2 = Clock::now();
      golden_sum += golden.total.total();
      est_sum += est.total.total();
      row.golden_ms +=
          std::chrono::duration<double, std::milli>(g1 - g0).count();
      row.estimate_ms +=
          std::chrono::duration<double, std::milli>(g2 - g1).count();
    }
    row.golden_ms /= golden_vectors;
    row.estimate_ms /= golden_vectors;
    row.golden_ua = golden_sum / golden_vectors * 1e6;
    row.estimated_ua = est_sum / golden_vectors * 1e6;
    row.error_pct = pct(est_sum, golden_sum);

    // (b)/(c) loading-vs-isolated variation over the full vector set,
    // via the (fast) estimator - the paper's Fig. 12b/c methodology.
    for (std::size_t i = 0; i < vectors; ++i) {
      const auto vec = logic::randomPattern(with.sourceCount(), rng);
      with.estimate(vec, with_ws, est);
      const device::LeakageBreakdown w = est.total;
      without.estimate(vec, without_ws, est);
      const device::LeakageBreakdown& wo = est.total;
      const double d_sub = pct(w.subthreshold, wo.subthreshold);
      const double d_gate = pct(w.gate, wo.gate);
      const double d_btbt = pct(w.btbt, wo.btbt);
      const double d_total = pct(w.total(), wo.total());
      row.avg_delta_pct.subthreshold += d_sub;
      row.avg_delta_pct.gate += d_gate;
      row.avg_delta_pct.btbt += d_btbt;
      row.avg_total_pct += d_total;
      if (std::abs(d_sub) > std::abs(row.max_delta_pct.subthreshold)) {
        row.max_delta_pct.subthreshold = d_sub;
      }
      if (std::abs(d_gate) > std::abs(row.max_delta_pct.gate)) {
        row.max_delta_pct.gate = d_gate;
      }
      if (std::abs(d_btbt) > std::abs(row.max_delta_pct.btbt)) {
        row.max_delta_pct.btbt = d_btbt;
      }
      if (std::abs(d_total) > std::abs(row.max_total_pct)) {
        row.max_total_pct = d_total;
      }
    }
    const auto n = static_cast<double>(vectors);
    row.avg_delta_pct.subthreshold /= n;
    row.avg_delta_pct.gate /= n;
    row.avg_delta_pct.btbt /= n;
    row.avg_total_pct /= n;
    rows.push_back(std::move(row));
    std::cout << "  " << bench.name << " done\n";
  }

  bench::banner("Fig. 12a: total leakage, golden full solve vs estimator");
  {
    TableWriter table({"circuit", "gates", "golden [uA]", "estimated [uA]",
                       "error [%]", "golden [ms]", "estimator [ms]",
                       "speedup"});
    for (const Row& row : rows) {
      table.addRow({row.name, std::to_string(row.gates),
                    formatDouble(row.golden_ua, 1),
                    formatDouble(row.estimated_ua, 1),
                    formatDouble(row.error_pct, 2),
                    formatDouble(row.golden_ms, 1),
                    formatDouble(row.estimate_ms, 3),
                    formatDouble(row.golden_ms /
                                     std::max(1e-6, row.estimate_ms),
                                 0)});
    }
    table.printText(std::cout);
  }

  bench::banner(
      "Fig. 12b: average % leakage variation due to loading (" +
      std::to_string(vectors) + " random vectors)");
  {
    TableWriter table({"circuit", "sub [%]", "gate [%]", "btbt [%]",
                       "total [%]"});
    for (const Row& row : rows) {
      table.addRow({row.name,
                    formatDouble(row.avg_delta_pct.subthreshold, 2),
                    formatDouble(row.avg_delta_pct.gate, 2),
                    formatDouble(row.avg_delta_pct.btbt, 2),
                    formatDouble(row.avg_total_pct, 2)});
    }
    table.printText(std::cout);
  }

  bench::banner("Fig. 12c: maximum % variation over the vector set");
  {
    TableWriter table({"circuit", "sub [%]", "gate [%]", "btbt [%]",
                       "total [%]"});
    for (const Row& row : rows) {
      table.addRow({row.name,
                    formatDouble(row.max_delta_pct.subthreshold, 2),
                    formatDouble(row.max_delta_pct.gate, 2),
                    formatDouble(row.max_delta_pct.btbt, 2),
                    formatDouble(row.max_total_pct, 2)});
    }
    table.printText(std::cout);
  }
  std::cout << "(expected shape: estimator within a few % of golden; "
               "average loading effect on total ~5%, subthreshold largest "
               "and positive, gate/BTBT negative; large speedup)\n";
  return 0;
}
