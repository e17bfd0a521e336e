// Ablation for the paper's central approximation (section 6): "the
// propagation of the loading effect beyond one level is negligible".
//
// Compares 0-level (no loading), 1-level (the paper; the compiled plan),
// and k-level (iterated pin currents; core::referenceEstimate) estimation
// against the golden full solve, and also ablates the characterization
// grid resolution.
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/golden.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "util/rng.h"
#include "util/table_writer.h"

using namespace nanoleak;

namespace {

/// Mean |error| [%] against the golden full solve over `vectors` random
/// patterns, at `levels` of loading propagation: the plan runs one level,
/// the reference evaluator deeper ones.
double meanAbsErrorPct(const logic::LogicNetlist& nl,
                       const core::LeakageLibrary& lib,
                       const core::EstimatorOptions& options, int levels,
                       int vectors, Rng rng) {
  const device::Technology tech = device::defaultTechnology();
  const core::EstimationPlan plan(nl, lib, options);
  core::EstimationWorkspace ws(plan);
  double sum = 0.0;
  for (int i = 0; i < vectors; ++i) {
    const auto vec = logic::randomPattern(plan.sourceCount(), rng);
    const double golden = core::goldenLeakage(nl, tech, vec).total.total();
    const double estimate =
        levels == 1
            ? plan.estimate(vec, ws).total.total()
            : core::referenceEstimate(nl, lib, options, vec, levels)
                  .total.total();
    sum += std::abs(estimate - golden) / golden * 100.0;
  }
  return sum / vectors;
}

}  // namespace

int main() {
  const device::Technology tech = device::defaultTechnology();
  const logic::LogicNetlist nl =
      logic::synthesizeIscasLike(logic::iscasSpec("s838"), 20050307);
  const int vectors = 3;

  core::CharacterizationOptions copts;
  copts.kinds = core::generatorGateKinds();
  const core::LeakageLibrary lib =
      core::Characterizer(tech, copts).characterize();

  bench::banner("Ablation: propagation depth (s838-shaped, " +
                std::to_string(vectors) + " vectors, error vs golden)");
  {
    TableWriter table({"mode", "mean |error| vs golden [%]"});
    core::EstimatorOptions none;
    none.with_loading = false;
    table.addRow({"no loading (traditional)",
                  formatDouble(meanAbsErrorPct(nl, lib, none, 1, vectors,
                                               Rng(5)),
                               3)});
    for (int levels : {1, 2, 4}) {
      table.addRow({std::to_string(levels) + "-level propagation",
                    formatDouble(meanAbsErrorPct(nl, lib, {}, levels,
                                                 vectors, Rng(5)),
                                 3)});
    }
    table.printText(std::cout);
    std::cout << "(expected: one level removes most of the no-loading "
                 "error; deeper levels change almost nothing - the paper's "
                 "justification for the Fig. 13 algorithm)\n";
  }

  bench::banner("Ablation: characterization grid resolution");
  {
    TableWriter table({"grid points", "char time [ms]",
                       "mean |error| vs golden [%]"});
    struct GridCase {
      const char* label;
      std::vector<double> grid;
    };
    const GridCase cases[] = {
        {"3", {0.0, 2.0e-6, 6.0e-6}},
        {"5", {0.0, 1.0e-6, 2.0e-6, 4.0e-6, 6.0e-6}},
        {"8 (default)",
         {0.0, 0.25e-6, 0.5e-6, 1.0e-6, 2.0e-6, 3.0e-6, 4.5e-6, 6.0e-6}},
    };
    for (const GridCase& grid_case : cases) {
      core::CharacterizationOptions options;
      options.kinds = core::generatorGateKinds();
      options.loading_grid = grid_case.grid;
      const auto t0 = std::chrono::steady_clock::now();
      const core::LeakageLibrary grid_lib =
          core::Characterizer(tech, options).characterize();
      const auto t1 = std::chrono::steady_clock::now();
      table.addRow(
          {grid_case.label,
           formatDouble(
               std::chrono::duration<double, std::milli>(t1 - t0).count(),
               0),
           formatDouble(meanAbsErrorPct(nl, grid_lib,
                                        core::EstimatorOptions{}, 1, vectors,
                                        Rng(5)),
                        3)});
    }
    table.printText(std::cout);
  }
  return 0;
}
