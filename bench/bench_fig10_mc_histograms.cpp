// Fig. 10: Monte-Carlo distributions of each leakage component of an
// inverter (input '0', 6 input-loading + 6 output-loading inverters) with
// and without loading, under process variation.
//
// Runs on the sweep engine: samples are distributed over worker threads
// with counter-based per-sample RNG streams, so the histograms are
// bit-identical for any thread count.
//
// Usage: bench_fig10_mc_histograms [samples] [threads]   (default 10000,
// the paper's count, on all hardware threads; pass a smaller sample count
// for a quick run)
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "engine/batch_runner.h"
#include "mc/monte_carlo.h"
#include "util/histogram.h"
#include "util/table_writer.h"
#include "util/units.h"

using namespace nanoleak;

namespace {

void printComponent(const char* name,
                    const std::vector<mc::McSample>& samples,
                    double device::LeakageBreakdown::*member) {
  std::vector<double> with;
  std::vector<double> without;
  with.reserve(samples.size());
  without.reserve(samples.size());
  for (const mc::McSample& s : samples) {
    with.push_back(toNanoAmps(s.with_loading.*member));
    without.push_back(toNanoAmps(s.without_loading.*member));
  }
  // Shared binning across the union of both samples, filled in sample
  // order on this thread.
  std::vector<double> all = with;
  all.insert(all.end(), without.begin(), without.end());
  const Histogram span = Histogram::fromData(all, 20);
  Histogram h_with(span.lo(), span.hi(), 20);
  Histogram h_without(span.lo(), span.hi(), 20);
  h_with.addAll(with);
  h_without.addAll(without);

  bench::banner(std::string("Fig. 10 ") + name + " leakage histogram [nA]");
  TableWriter table({"bin center [nA]", "no loading", "with loading"});
  for (std::size_t bin = 0; bin < h_with.binCount(); ++bin) {
    table.addRow({formatDouble(h_with.binCenter(bin), 1),
                  std::to_string(h_without.count(bin)),
                  std::to_string(h_with.count(bin))});
  }
  table.printText(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t samples = bench::sampleCount(argc, argv, 10000);
  engine::BatchRunner runner(
      engine::BatchOptions{.threads = bench::threadCount(argc, argv)});
  std::cout << "Monte-Carlo with " << samples
            << " samples (seed 20050307, batched on "
            << runner.pool().threadCount()
            << " threads), sigmas: L=2nm Tox=0.67A "
               "Vt_inter=30mV Vt_intra=30mV VDD=333mV\n";
  engine::McSweep sweep;
  sweep.technology = device::defaultTechnology();
  sweep.samples = samples;
  sweep.seed = 20050307;
  const engine::McBatchResult batch = runner.run(sweep);
  const std::vector<mc::McSample>& run = batch.samples;

  printComponent("subthreshold", run,
                 &device::LeakageBreakdown::subthreshold);
  printComponent("gate", run, &device::LeakageBreakdown::gate);
  printComponent("junction BTBT", run, &device::LeakageBreakdown::btbt);

  std::vector<mc::McSample> totals = run;
  // Total = sum; reuse printComponent by materializing totals in sub slot.
  for (mc::McSample& s : totals) {
    s.with_loading.subthreshold = s.with_loading.total();
    s.without_loading.subthreshold = s.without_loading.total();
  }
  printComponent("total", totals, &device::LeakageBreakdown::subthreshold);

  const mc::McSummary& summary = batch.summary;
  bench::banner("Fig. 10 summary (totals)");
  std::cout << "mean without loading: "
            << formatDouble(toNanoAmps(summary.mean_without), 1)
            << " nA, with loading: "
            << formatDouble(toNanoAmps(summary.mean_with), 1) << " nA ("
            << formatDouble(summary.mean_shift_pct, 2) << " %)\n"
            << "std  without loading: "
            << formatDouble(toNanoAmps(summary.std_without), 1)
            << " nA, with loading: "
            << formatDouble(toNanoAmps(summary.std_with), 1) << " nA ("
            << formatDouble(summary.std_shift_pct, 2) << " %)\n"
            << "max  without loading: "
            << formatDouble(toNanoAmps(summary.max_without), 1)
            << " nA, with loading: "
            << formatDouble(toNanoAmps(summary.max_with), 1) << " nA ("
            << formatDouble(summary.max_shift_pct, 2) << " %)\n";
  std::cout << "(expected shape: loading shifts the subthreshold "
               "distribution right, gate/BTBT slightly left, and fattens "
               "the total's right tail)\n";
  return 0;
}
