// nanoleak benchmark binary. Run it through perfbench/run.py, which
// builds it; see that script for usage.
//
//   perfbench --workload sweep|signoff|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// --trace 0 sets up the workload three times (setup_s is the median),
// then runs its rounds untraced for S seconds and reports the end-to-end
// metrics (round_s is the median round). --trace 1 sets up once, runs a
// warm-up round, then alternates untraced and traced slices (the gap of
// their median rounds is obs.trace_overhead_pct), then runs the layer
// probe and reports the per-layer metrics. The last stdout line is the
// JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|signoff|serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("malformed value '" + value + "' for " + flag);
    }
  }
  if (args.workload != "sweep" && args.workload != "signoff" &&
      args.workload != "serve") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (args.work_dir.empty()) usage("--work-dir is required");
  return args;
}

std::unique_ptr<perfbench::Workload> makeWorkload(
    const std::string& name, const perfbench::RunConfig& config) {
  if (name == "sweep") return perfbench::makeSweep(config);
  if (name == "signoff") return perfbench::makeSignoff(config);
  return perfbench::makeServe(config);
}

void reportPhase(const char* label, const perfbench::PhaseTimes& times) {
  std::printf("%s\n", label);
  perfbench::Result::report("round_s", "s", times.rounds, 1.0);
  perfbench::Result::report("op_latency_ms", "ms", times.ops, 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parseArgs(argc, argv);
  RunConfig config;
  config.seed = args.seed;
  config.cpus = availableCpus();
  config.work_dir = args.work_dir;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d cpus=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, config.cpus);

  Result result;
  try {
    std::unique_ptr<Workload> workload = makeWorkload(args.workload, config);
    Samples setups;
    const int setup_repeats = args.trace == 0 ? 3 : 1;
    for (int i = 0; i < setup_repeats; ++i) {
      const Clock::time_point start = Clock::now();
      workload->setup();
      setups.add(secondsSince(start));
    }

    if (args.trace == 0) {
      Tracer untraced(false);
      const PhaseTimes times = workload->run(args.seconds, untraced, result);
      // Sampled before finish(): the output checks replay work in the
      // benchmark's own threads and are not part of the workload.
      const double peak_rss_mb = peakRssMb();
      std::printf("end-to-end (%s):\n", args.workload.c_str());
      workload->finish(result);
      reportPhase("operations:", times);
      Result::report("setup_s", "s", setups, 1.0);
      const double failed_frac =
          result.attempted() == 0
              ? 1.0
              : double(result.failed()) / double(result.attempted());
      Result::report("failed_frac", "ratio", failed_frac, result.attempted());
      result.set("setup_s", setups.median(), "s");
      result.set("round_s", times.rounds.median(), "s");
      result.set("op_p50_ms", times.ops.percentile(50.0) * 1e3, "ms");
      result.set("op_p90_ms", times.ops.percentile(90.0) * 1e3, "ms");
      result.set("peak_rss_mb", peak_rss_mb, "MiB");
      Result::report("peak_rss_mb", "MiB", peak_rss_mb, 1);
    } else {
      // One warm-up round, then untraced and traced slices alternate so
      // neither side gets the colder start.
      Tracer untraced(false);
      Tracer traced(true);
      workload->run(0.0, untraced, result);
      PhaseTimes plain, with_spans;
      for (int slice = 0; slice < 2; ++slice) {
        const PhaseTimes a = workload->run(args.seconds / 4.0, untraced, result);
        const PhaseTimes b = workload->run(args.seconds / 4.0, traced, result);
        plain.ops.addAll(a.ops);
        plain.rounds.addAll(a.rounds);
        with_spans.ops.addAll(b.ops);
        with_spans.rounds.addAll(b.rounds);
      }
      std::printf("workload (%s):\n", args.workload.c_str());
      workload->finish(result);
      reportPhase("untraced operations:", plain);
      reportPhase("traced operations:", with_spans);
      const double overhead_pct =
          100.0 * (with_spans.rounds.median() - plain.rounds.median()) /
          plain.rounds.median();
      Result::report("obs.trace_overhead_pct", "%", overhead_pct,
                     with_spans.rounds.size());
      result.set("obs.trace_overhead_pct", overhead_pct, "%");

      std::printf("per-layer probe:\n");
      runLayerProbe(config, traced, result);
      std::printf("self time per layer (all spans):\n");
      for (const auto& [layer, seconds] : traced.layerSelfSeconds()) {
        Result::report(layer + ".self_s", "s", seconds, 1);
      }
      const std::string trace_path = args.work_dir + "/trace-" +
                                     args.workload + "-" +
                                     std::to_string(args.seed) + ".json";
      if (traced.write(trace_path)) {
        std::printf("spans: %zu written to %s\n", traced.spans().size(),
                    trace_path.c_str());
      } else {
        std::cerr << "perfbench: warning: cannot write " << trace_path << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: aborted: " << e.what() << "\n";
    return 1;
  }
  std::printf("attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()));
  std::printf("%s\n", result.json().c_str());
  return 0;
}
