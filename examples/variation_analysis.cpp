// Process-variation analysis: how the loading effect changes the leakage
// distribution of a loaded gate (paper section 5.3). A signoff flow that
// budgets leakage from the no-loading distribution underestimates both
// the mean and - far more dangerously - the spread and the tail.
#include <algorithm>
#include <iostream>
#include <vector>

#include "engine/batch_runner.h"
#include "util/statistics.h"
#include "util/table_writer.h"
#include "util/units.h"

using namespace nanoleak;

int main(int argc, char** argv) {
  std::size_t samples = 2000;
  if (argc > 1) {
    const long parsed = std::strtol(argv[1], nullptr, 10);
    if (parsed > 0) {
      samples = static_cast<std::size_t>(parsed);
    }
  }

  // The paper's Fig. 10 fixture: inverter at input '0' with 6 input- and
  // 6 output-loading inverters, default sigmas (see mc/variation.h),
  // sampled on all hardware threads.
  engine::McSweep sweep;
  sweep.technology = device::defaultTechnology();
  sweep.samples = samples;
  sweep.seed = 4242;
  engine::BatchRunner runner;
  std::cout << "sampling " << samples << " process corners...\n";
  const engine::McBatchResult run = runner.run(sweep);

  std::vector<double> with;
  std::vector<double> without;
  for (const mc::McSample& s : run.samples) {
    with.push_back(toNanoAmps(s.with_loading.total()));
    without.push_back(toNanoAmps(s.without_loading.total()));
  }
  const SampleSummary sw = summarize(with);
  const SampleSummary swo = summarize(without);

  TableWriter table({"statistic", "no loading [nA]", "with loading [nA]",
                     "shift [%]"});
  auto row = [&](const char* name, double a, double b) {
    table.addRow({name, formatDouble(a, 1), formatDouble(b, 1),
                  formatDouble(100.0 * (b - a) / a, 2)});
  };
  row("mean", swo.mean, sw.mean);
  row("stddev", swo.stddev, sw.stddev);
  row("median", swo.median, sw.median);
  row("p95", swo.p95, sw.p95);
  row("p99", swo.p99, sw.p99);
  row("max", swo.max, sw.max);
  table.printText(std::cout);

  std::cout << "\nTakeaway: under parameter variation the loading effect "
               "inflates the spread and upper percentiles of the leakage "
               "distribution far more than the mean - leakage signoff "
               "without loading awareness is optimistic exactly where it "
               "hurts.\n";
  return 0;
}
