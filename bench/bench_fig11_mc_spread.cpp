// Fig. 11: loading-induced change of the mean and standard deviation of
// an inverter's total leakage vs the inter-die Vth sigma (30/40/50 mV).
//
// Runs on the sweep engine, like Fig. 10: each sigma's population is
// counter-seeded per sample, so the table is bit-identical for any
// thread count.
//
// Usage: bench_fig11_mc_spread [samples] [threads]   (default 10000 per
// sigma, on all hardware threads)
#include <iostream>

#include "bench_util.h"
#include "engine/batch_runner.h"
#include "util/table_writer.h"

using namespace nanoleak;

int main(int argc, char** argv) {
  const std::size_t samples = bench::sampleCount(argc, argv, 10000);
  engine::BatchRunner runner(
      engine::BatchOptions{.threads = bench::threadCount(argc, argv)});
  std::cout << "Monte-Carlo with " << samples
            << " samples per sigma (seed 41, batched on "
            << runner.pool().threadCount()
            << " threads), sigma_L=2nm, sigma_Tox=0.67A,"
               " sigma_VDD=333mV, sigma_Vt_intra=30mV\n";

  bench::banner("Fig. 11: loading effect on mean / std of total leakage");
  TableWriter table({"sigma_Vt_inter [mV]", "mean shift [%]",
                     "std shift [%]", "max shift [%]"});
  for (double sigma_mv : {30.0, 40.0, 50.0}) {
    engine::McSweep sweep;
    sweep.technology = device::defaultTechnology();
    sweep.sigmas.sigma_vth_inter = sigma_mv * 1e-3;
    sweep.samples = samples;
    sweep.seed = 41;
    const mc::McSummary summary = runner.run(sweep).summary;
    table.addNumericRow({sigma_mv, summary.mean_shift_pct,
                         summary.std_shift_pct, summary.max_shift_pct},
                        2);
  }
  table.printText(std::cout);
  std::cout << "(expected shape: loading raises the mean a few percent and "
               "the standard deviation considerably more; see "
               "EXPERIMENTS.md for the sigma_Vt trend discussion)\n";
  return 0;
}
