// Quickstart: estimate the leakage of a small circuit, with and without
// the loading effect, and cross-check against the full transistor-level
// solve.
//
//   1. build (or parse) a gate-level netlist
//   2. characterize the leakage library once for your technology
//   3. compile an estimation plan once per (netlist, library, options)
//   4. estimate per input vector on a reusable workspace - roughly three
//      orders of magnitude faster than re-solving the transistor netlist
#include <iostream>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/golden.h"
#include "logic/bench_io.h"
#include "util/table_writer.h"
#include "util/units.h"

using namespace nanoleak;

int main() {
  // A small circuit in ISCAS89 .bench syntax.
  const char* bench_text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NOR(c, d)
n3 = XOR(n1, n2)
n4 = AND(n1, c)
y  = NAND(n3, n4)
)";
  const logic::LogicNetlist netlist = logic::parseBenchString(bench_text);
  std::cout << "circuit: " << netlist.gateCount() << " gates, "
            << netlist.netCount() << " nets\n";

  // One-time characterization of the (gate kind, vector) leakage tables.
  const device::Technology tech = device::defaultTechnology();
  core::CharacterizationOptions copts;
  copts.kinds = core::generatorGateKinds();
  const core::LeakageLibrary library =
      core::Characterizer(tech, copts).characterize();

  // One plan per option set; a workspace holds one plan's per-call buffers.
  const core::EstimationPlan with_loading(netlist, library);
  core::EstimatorOptions no_loading_opts;
  no_loading_opts.with_loading = false;
  const core::EstimationPlan no_loading(netlist, library, no_loading_opts);
  core::EstimationWorkspace with_ws(with_loading);
  core::EstimationWorkspace no_ws(no_loading);

  TableWriter table({"vector abcd", "traditional [nA]",
                     "loading-aware [nA]", "delta [%]", "golden [nA]",
                     "est. error [%]"});
  for (unsigned v = 0; v < 16; v += 3) {
    const std::vector<bool> vec{(v & 1) != 0, (v & 2) != 0, (v & 4) != 0,
                                (v & 8) != 0};
    const double base = no_loading.estimate(vec, no_ws).total.total();
    const double loaded = with_loading.estimate(vec, with_ws).total.total();
    const double golden = core::goldenLeakage(netlist, tech, vec)
                              .total.total();
    std::string bits;
    for (bool bit : vec) {
      bits += bit ? '1' : '0';
    }
    table.addRow({bits, formatDouble(toNanoAmps(base), 1),
                  formatDouble(toNanoAmps(loaded), 1),
                  formatDouble(100.0 * (loaded - base) / base, 2),
                  formatDouble(toNanoAmps(golden), 1),
                  formatDouble(100.0 * (loaded - golden) / golden, 2)});
  }
  table.printText(std::cout);
  std::cout << "\nThe loading-aware estimate tracks the transistor-level "
               "golden solve within a few percent, while the traditional "
               "accumulation misses the loading-induced increase.\n";
  return 0;
}
