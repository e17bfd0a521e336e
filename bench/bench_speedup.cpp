// Section 6 claim: the table-driven estimator is orders of magnitude
// faster than the full ("SPICE-role") nonlinear solve. google-benchmark
// timings for both paths on two circuits, plus an engine-scaling section
// reporting wall time / throughput of the Fig. 10 Monte-Carlo workload at
// 1/2/4/8 threads (as a text table and as JSON on stdout; also written to
// speedup.json).
//
// Env: NANOLEAK_SCALING_SAMPLES overrides the MC population (default 192).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/characterizer.h"
#include "core/estimator.h"
#include "core/golden.h"
#include "engine/batch_runner.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "util/rng.h"
#include "util/table_writer.h"

using namespace nanoleak;

namespace {

struct Setup {
  logic::LogicNetlist netlist;
  core::LeakageLibrary library;
  std::vector<bool> vector;

  explicit Setup(logic::LogicNetlist nl) : netlist(std::move(nl)) {
    core::CharacterizationOptions options;
    options.kinds = core::generatorGateKinds();
    library = core::Characterizer(device::defaultTechnology(), options)
                  .characterize();
    Rng rng(77);
    const logic::LogicSimulator sim(netlist);
    vector = logic::randomPattern(sim.sourceCount(), rng);
  }
};

Setup& mult88() {
  static Setup setup(logic::arrayMultiplier(8));
  return setup;
}

Setup& s838() {
  static Setup setup(
      logic::synthesizeIscasLike(logic::iscasSpec("s838"), 20050307));
  return setup;
}

void BM_GoldenSolve_Mult88(benchmark::State& state) {
  Setup& setup = mult88();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::goldenLeakage(
        setup.netlist, device::defaultTechnology(), setup.vector));
  }
}
BENCHMARK(BM_GoldenSolve_Mult88)->Unit(benchmark::kMillisecond);

void BM_Estimator_Mult88(benchmark::State& state) {
  Setup& setup = mult88();
  const core::LeakageEstimator estimator(setup.netlist, setup.library);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(setup.vector));
  }
}
BENCHMARK(BM_Estimator_Mult88)->Unit(benchmark::kMicrosecond);

void BM_GoldenSolve_S838(benchmark::State& state) {
  Setup& setup = s838();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::goldenLeakage(
        setup.netlist, device::defaultTechnology(), setup.vector));
  }
}
BENCHMARK(BM_GoldenSolve_S838)->Unit(benchmark::kMillisecond);

void BM_Estimator_S838(benchmark::State& state) {
  Setup& setup = s838();
  const core::LeakageEstimator estimator(setup.netlist, setup.library);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(setup.vector));
  }
}
BENCHMARK(BM_Estimator_S838)->Unit(benchmark::kMicrosecond);

void BM_Characterization_FullLibrary(benchmark::State& state) {
  core::CharacterizationOptions options;
  options.kinds = core::generatorGateKinds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Characterizer(device::defaultTechnology(), options)
            .characterize());
  }
}
BENCHMARK(BM_Characterization_FullLibrary)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_LogicSimulation_S838(benchmark::State& state) {
  Setup& setup = s838();
  const logic::LogicSimulator sim(setup.netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(setup.vector));
  }
}
BENCHMARK(BM_LogicSimulation_S838)->Unit(benchmark::kMicrosecond);

// --- Engine scaling: Fig. 10 MC workload at 1/2/4/8 threads ----------------

struct ScalingPoint {
  int threads = 0;
  double wall_s = 0.0;
  double throughput_sps = 0.0;  // samples per second
  double speedup = 0.0;         // vs 1 thread
};

std::size_t scalingSamples() {
  if (const char* env = std::getenv("NANOLEAK_SCALING_SAMPLES")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return 192;
}

std::string scalingJson(const std::vector<ScalingPoint>& points,
                        std::size_t samples) {
  std::ostringstream json;
  json << "{\n  \"workload\": \"fig10_mc\",\n  \"samples\": " << samples
       << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    json << "    {\"threads\": " << p.threads << ", \"wall_s\": " << p.wall_s
         << ", \"throughput_sps\": " << p.throughput_sps
         << ", \"speedup\": " << p.speedup << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return json.str();
}

void runEngineScaling() {
  const std::size_t samples = scalingSamples();
  engine::McSweep sweep;
  sweep.technology = device::defaultTechnology();
  sweep.samples = samples;
  sweep.seed = 20050307;

  std::cout << "\n=== Engine scaling: Fig. 10 MC workload (" << samples
            << " samples, hardware threads: "
            << std::thread::hardware_concurrency() << ") ===\n";

  std::vector<ScalingPoint> points;
  double reference_total = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    engine::BatchRunner runner(engine::BatchOptions{.threads = threads});
    const auto t0 = std::chrono::steady_clock::now();
    const engine::McBatchResult result = runner.run(sweep);
    const auto t1 = std::chrono::steady_clock::now();

    // The determinism contract, checked live: every thread count produces
    // the same population.
    const double total = result.summary.mean_with;
    if (threads == 1) {
      reference_total = total;
    } else if (total != reference_total) {
      std::cerr << "ERROR: thread count changed the MC result\n";
      std::exit(1);
    }

    ScalingPoint point;
    point.threads = threads;
    point.wall_s = std::chrono::duration<double>(t1 - t0).count();
    point.throughput_sps =
        point.wall_s > 0.0 ? static_cast<double>(samples) / point.wall_s : 0.0;
    point.speedup = points.empty() ? 1.0 : points.front().wall_s / point.wall_s;
    points.push_back(point);
  }

  TableWriter table({"threads", "wall [s]", "samples/s", "speedup"});
  for (const ScalingPoint& p : points) {
    table.addNumericRow(
        {static_cast<double>(p.threads), p.wall_s, p.throughput_sps,
         p.speedup},
        3);
  }
  table.printText(std::cout);

  const std::string json = scalingJson(points, samples);
  std::cout << "\n--- speedup.json ---\n" << json;
  std::ofstream out(nanoleak::bench::outPath("speedup.json"));
  if (out.good()) {
    out << json;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Introspection-only invocations must stay side-effect free: no MC
  // workload, no speedup.json overwrite.
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--benchmark_list_tests", 0) == 0 || arg == "--help") {
      list_only = true;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!list_only) {
    runEngineScaling();
  }
  return 0;
}
