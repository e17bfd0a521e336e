// Quickstart for the parallel sweep engine: one BatchRunner drives a
// Monte-Carlo population, a (flavour x temperature) corner sweep, and a
// multi-pattern circuit estimate - all on the same thread pool, sharing
// characterized tables through the corner cache.
//
// Every result is bit-identical no matter how many threads run it: each
// parallel loop writes index-addressed slots, per-sample RNG streams come
// from counter-based seeding, and each reduction runs once, in index
// order, on the calling thread.
//
// Usage: example_parallel_sweep [threads]   (0/absent = all hardware)
#include <cstdlib>
#include <iostream>

#include "core/estimation_plan.h"
#include "engine/batch_runner.h"
#include "logic/generators.h"
#include "util/table_writer.h"
#include "util/units.h"

using namespace nanoleak;

int main(int argc, char** argv) {
  int threads = 0;
  if (argc > 1) {
    threads = static_cast<int>(std::strtol(argv[1], nullptr, 10));
  }
  engine::BatchRunner runner(engine::BatchOptions{.threads = threads});
  std::cout << "sweep engine on " << runner.pool().threadCount()
            << " thread(s)\n";

  // --- 1. Monte-Carlo population (the paper's Fig. 10/11 workload) --------
  engine::McSweep mc_sweep;
  mc_sweep.technology = device::defaultTechnology();
  mc_sweep.samples = 200;
  mc_sweep.seed = 20050307;
  const engine::McBatchResult mc = runner.run(mc_sweep);
  std::cout << "\nMC population of " << mc.samples.size()
            << " paired solves:\n  mean total with loading    "
            << formatDouble(toNanoAmps(mc.summary.mean_with), 1)
            << " nA\n  mean total without loading "
            << formatDouble(toNanoAmps(mc.summary.mean_without), 1)
            << " nA\n  loading widens sigma by    "
            << formatDouble(mc.summary.std_shift_pct, 2) << " %\n";

  // --- 2. Corner sweep: device flavours x temperatures --------------------
  engine::CornerSweep corners;
  corners.kind = gates::GateKind::kInv;
  corners.input_vector = {false};
  corners.technologies = {device::defaultTechnology(),
                          device::gateDominatedTechnology(),
                          device::btbtDominatedTechnology()};
  corners.temperatures_k = {300.0, 350.0, 400.0};
  corners.input_loading_amps = nA(2000.0);
  corners.output_loading_amps = nA(2000.0);
  const std::vector<engine::CornerResult> grid = runner.run(corners);

  const char* flavour_names[] = {"D25-S", "D25-G", "D25-JN"};
  TableWriter table({"flavour", "T [K]", "nominal [nA]", "LDALL [%]"});
  for (const engine::CornerResult& corner : grid) {
    table.addRow({flavour_names[corner.technology_index],
                  formatDouble(corner.temperature_k, 0),
                  formatDouble(toNanoAmps(corner.nominal.total()), 1),
                  formatDouble(corner.effect.total_pct, 2)});
  }
  std::cout << "\nLoading effect across " << grid.size() << " corners:\n";
  table.printText(std::cout);

  // --- 3. Pattern sweep over a circuit with a shared cached library -------
  // Estimation is compiled once into an immutable EstimationPlan; the
  // runner shares it across all workers, giving each thread its own
  // workspace. A chunk of patterns this far apart (a binary count) runs
  // through the plan's 8-pattern block kernel; a chunk of 1-bit steps
  // would walk the incremental delta path instead.
  const logic::LogicNetlist netlist = logic::c17();
  core::CharacterizationOptions options;
  options.kinds = {gates::GateKind::kNand2, gates::GateKind::kInv};
  const core::LeakageLibrary library = runner.cache().library(
      device::defaultTechnology(), options.kinds, options);
  const core::EstimationPlan plan(netlist, library);

  std::vector<std::vector<bool>> patterns;
  for (std::size_t value = 0; value < (1u << plan.sourceCount()); ++value) {
    std::vector<bool> pattern(plan.sourceCount());
    for (std::size_t bit = 0; bit < pattern.size(); ++bit) {
      pattern[bit] = (value >> bit) & 1;
    }
    patterns.push_back(std::move(pattern));
  }
  const std::vector<core::EstimateResult> estimates =
      runner.runPatterns(plan, patterns);

  double best = 0.0;
  std::size_t best_index = 0;
  double worst = 0.0;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    const double total = estimates[i].total.total();
    if (i == 0 || total < best) {
      best = total;
      best_index = i;
    }
    worst = std::max(worst, total);
  }
  std::cout << "\nc17 vector sweep over " << patterns.size()
            << " patterns: min " << formatDouble(toNanoAmps(best), 1)
            << " nA (pattern " << best_index << "), max "
            << formatDouble(toNanoAmps(worst), 1)
            << " nA -> best-vector standby saves "
            << formatDouble(100.0 * (worst - best) / worst, 1) << " %\n";

  const engine::TableCache::Stats stats = runner.cache().stats();
  std::cout << "\ncorner cache: " << stats.misses << " characterizations, "
            << stats.hits << " reuses\n";
  return 0;
}
