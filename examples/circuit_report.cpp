// Circuit leakage report tool: reads an ISCAS89 .bench file (or builds a
// named circuit from the scenario registry's catalogue), characterizes
// the library, and prints a per-gate and per-component leakage report
// over random vectors.
//
// Usage:
//   circuit_report                       (built-in c17)
//   circuit_report path/to/circuit.bench (your own netlist)
//   circuit_report mult88|alu88|s838     (any scenario::buildCircuit name)
#include <algorithm>
#include <iostream>
#include <string>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "logic/logic_sim.h"
#include "scenario/scenario.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/statistics.h"
#include "util/table_writer.h"
#include "util/units.h"

using namespace nanoleak;

int main(int argc, char** argv) {
  try {
    const std::string spec = argc > 1 ? argv[1] : "c17";
    // Circuit names resolve through the scenario registry's catalogue, so
    // examples, benches, and golden suites agree on what "s838" means.
    const logic::LogicNetlist netlist = scenario::buildCircuit(spec);
    const logic::NetlistStats stats = logic::computeStats(netlist);
    std::cout << "circuit '" << spec << "': " << stats.gates << " gates, "
              << stats.dffs << " DFFs, " << stats.primary_inputs << " PIs, "
              << stats.primary_outputs << " POs, depth " << stats.logic_depth
              << ", mean fanout " << formatDouble(stats.mean_fanout, 2)
              << "\n";

    const device::Technology tech = device::defaultTechnology();
    core::CharacterizationOptions copts;
    copts.kinds = core::generatorGateKinds();
    const core::LeakageLibrary library =
        core::Characterizer(tech, copts).characterize();
    const core::EstimationPlan plan(netlist, library);
    core::EstimationWorkspace ws(plan);

    Rng rng(1);
    RunningStats sub;
    RunningStats gate;
    RunningStats btbt;
    RunningStats total;
    const int vectors = 50;
    core::EstimateResult last;
    for (int i = 0; i < vectors; ++i) {
      const auto vec = logic::randomPattern(plan.sourceCount(), rng);
      plan.estimate(vec, ws, last);
      sub.add(toNanoAmps(last.total.subthreshold));
      gate.add(toNanoAmps(last.total.gate));
      btbt.add(toNanoAmps(last.total.btbt));
      total.add(toNanoAmps(last.total.total()));
    }

    std::cout << "\nleakage over " << vectors << " random vectors [nA]:\n";
    TableWriter table({"component", "mean", "min", "max"});
    auto row = [&](const char* name, const RunningStats& stats_row) {
      table.addRow({name, formatDouble(stats_row.mean(), 1),
                    formatDouble(stats_row.min(), 1),
                    formatDouble(stats_row.max(), 1)});
    };
    row("subthreshold", sub);
    row("gate tunneling", gate);
    row("junction BTBT", btbt);
    row("total", total);
    table.printText(std::cout);

    // Worst gates on the last vector.
    std::vector<std::pair<double, logic::GateId>> ranked;
    for (logic::GateId g = 0; g < last.per_gate.size(); ++g) {
      ranked.emplace_back(last.per_gate[g].leakage.total(), g);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    std::cout << "\nhottest gates (last vector):\n";
    TableWriter hot({"gate", "kind", "leakage [nA]", "IL [nA]", "OL [nA]"});
    for (std::size_t i = 0; i < 5 && i < ranked.size(); ++i) {
      const logic::GateId g = ranked[i].second;
      hot.addRow({netlist.gate(g).name,
                  gates::toString(netlist.gate(g).kind),
                  formatDouble(toNanoAmps(ranked[i].first), 1),
                  formatDouble(toNanoAmps(last.per_gate[g].il), 1),
                  formatDouble(toNanoAmps(last.per_gate[g].ol), 1)});
    }
    hot.printText(std::cout);
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
