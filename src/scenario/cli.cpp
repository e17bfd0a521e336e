#include "scenario/cli.h"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/estimation_plan.h"
#include "obs/trace.h"
#include "scenario/checker.h"
#include "scenario/golden_file.h"
#include "scenario/metrics_io.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/serve_protocol.h"
#include "search/optimizer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "thermal/thermal_sweep.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/table_writer.h"

namespace nanoleak::scenario {

namespace {

constexpr const char* kUsage = R"(nanoleak - scenario suites & golden regression driver

usage:
  nanoleak list [--format table|csv]
  nanoleak run <suite|scenario> [--threads N] [--format table|csv|json]
               [--time] [--metrics-out FILE] [--trace-out FILE]
  nanoleak stats <suite|scenario> [--threads N] [--format table|csv]
                 [--metrics-out FILE] [--trace-out FILE]
  nanoleak record <suite> --out FILE [--threads N]
  nanoleak check <suite> --golden FILE [--threads N]
                 [--abs-tol X] [--rel-tol X] [--exact]
  nanoleak thermal <circuit> [--flavour F] [--tmin K] [--tmax K]
                   [--points N] [--vectors N] [--seed S] [--no-loading]
                   [--cold] [--threads N] [--format table|csv]
                   [--metrics-out FILE] [--trace-out FILE]
  nanoleak optimize <circuit> [--objective min|max]
                    [--method exact|heuristic|auto] [--budget N]
                    [--seed S] [--flavour F] [--temp K] [--no-loading]
                    [--threads N] [--format table|csv]
                    [--metrics-out FILE] [--trace-out FILE]
  nanoleak serve [--socket PATH] [--port N] [--workers N] [--threads N]
                 [--queue N] [--plan-cache N] [--table-cache N]
                 [--idle-timeout-ms N] [--write-timeout-ms N]
                 [--quota-rps X] [--quota-burst X] [--faults SPEC]
                 [--metrics-out FILE]
  nanoleak client <op> [name] (--socket PATH | --port N) [--id S]
                  [--flavour F] [--temp K] [--policy random|walk]
                  [--vectors N] [--seed S] [--samples N] [--tmin K]
                  [--tmax K] [--points N] [--no-loading]
                  [--timeout-ms N] [--retries N] [--deadline-ms N]
                  [--tenant S]

serve runs the estimation daemon (at least one of --socket / --port;
--port 0 picks an ephemeral port and prints it) until SIGINT/SIGTERM or
a client shutdown op; queued requests finish before it exits. client
sends one request - op is ping|run|estimate|mc|thermal|stats|shutdown,
`name` the registry target (run) or circuit (estimate/thermal) - and
prints the response payload verbatim, so `client run S` output can be
byte-diffed against `run S --format json`. See docs/SERVE.md.

resilience: serve honors per-request deadlines, per-tenant quotas
(--quota-rps/--quota-burst), idle/write timeouts, and deterministic
fault injection (--faults SPEC or NANOLEAK_FAULTS); client gets bounded
waits (--timeout-ms) and seeded-backoff retry (--retries). See
docs/RESILIENCE.md.

observability: --metrics-out writes a nanoleak-metrics-v1 JSON snapshot,
--trace-out a Chrome trace-event JSON (chrome://tracing / Perfetto).
Both are diagnostics; results stay byte-identical with them enabled.

exit codes: 0 success, 1 run/check failure, 2 usage error
)";

/// Signals a usage error; caught at the cliMain boundary.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

struct ParsedArgs {
  std::string command;
  std::vector<std::string> positionals;
  int threads = 0;
  std::string format = "table";
  std::string out_path;
  std::string golden_path;
  std::string metrics_out_path;
  std::string trace_out_path;
  Tolerance tolerance;
  bool exact = false;
  bool time = false;
  // `thermal` options.
  std::string flavour = "d25s";
  double t_min_k = 233.0;
  double t_max_k = 398.0;
  std::size_t t_points = 8;
  std::size_t vectors = 12;
  std::uint64_t seed = 20050307;
  bool no_loading = false;
  bool cold = false;
  // `optimize` options.
  std::string objective = "min";
  std::string search_method = "auto";
  std::size_t budget = 256;
  // `serve` / `client` options.
  std::string socket_path;
  int port = -1;
  int workers = 2;
  std::size_t queue_capacity = 64;
  std::size_t plan_cache_entries = 32;
  std::size_t table_cache_entries = 512;
  std::size_t samples = 64;
  double temp_k = 300.0;
  std::string request_id;
  std::string policy = "random";
  // `serve` resilience options.
  int idle_timeout_ms = 0;
  int write_timeout_ms = 10000;
  double quota_rps = 0.0;
  double quota_burst = 8.0;
  std::string faults_spec;
  // `client` resilience options.
  int timeout_ms = -1;
  int retries = 0;
  std::uint64_t deadline_ms = 0;
  std::string tenant;
  /// Flags that actually appeared, for per-command validation.
  std::vector<std::string> seen_flags;
};

/// True when the user typed `flag` (vs. the struct default), for flags
/// whose serve-protocol default differs from the sibling CLI command's.
bool sawFlag(const ParsedArgs& args, const std::string& flag) {
  for (const std::string& seen : args.seen_flags) {
    if (seen == flag) {
      return true;
    }
  }
  return false;
}

/// Rejects flags the command does not consume - silently ignoring
/// `record --rel-tol` or `run --out` would let the user believe the flag
/// took effect.
void requireOnlyFlags(const ParsedArgs& args,
                      const std::vector<std::string>& allowed) {
  for (const std::string& flag : args.seen_flags) {
    bool ok = false;
    for (const std::string& candidate : allowed) {
      ok = ok || candidate == flag;
    }
    if (!ok) {
      throw UsageError("option '" + flag + "' does not apply to '" +
                       args.command + "'");
    }
  }
}

long parseLong(const std::string& value, long min, long max,
               const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < min || parsed > max) {
    throw UsageError("malformed " + what + " '" + value +
                     "' (want an integer in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "])");
  }
  return parsed;
}

double parseDouble(const std::string& value, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  // !(parsed >= 0.0) alone rejects negatives and NaN but passes +inf
  // (strtod accepts "inf"/"infinity"), which would reach e.g. the thermal
  // grid as a "valid" temperature - reject every non-finite value.
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed) || !(parsed >= 0.0)) {
    throw UsageError("malformed " + what + " '" + value +
                     "' (want a finite non-negative number)");
  }
  return parsed;
}

ParsedArgs parseArgs(int argc, const char* const* argv) {
  ParsedArgs args;
  if (argc < 2) {
    throw UsageError("missing command");
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw UsageError(std::string(flag) + " requires a value");
      }
      return argv[++i];
    };
    if (!arg.empty() && arg[0] == '-') {
      args.seen_flags.push_back(arg);
    }
    if (arg == "--threads") {
      args.threads = static_cast<int>(
          parseLong(value("--threads"), 0, INT_MAX, "--threads"));
    } else if (arg == "--format") {
      args.format = value("--format");
      if (args.format != "table" && args.format != "csv" &&
          args.format != "json") {
        throw UsageError("unknown --format '" + args.format +
                         "' (want table|csv|json)");
      }
    } else if (arg == "--out") {
      args.out_path = value("--out");
    } else if (arg == "--metrics-out") {
      args.metrics_out_path = value("--metrics-out");
    } else if (arg == "--trace-out") {
      args.trace_out_path = value("--trace-out");
    } else if (arg == "--golden") {
      args.golden_path = value("--golden");
    } else if (arg == "--abs-tol") {
      args.tolerance.abs = parseDouble(value("--abs-tol"), "--abs-tol");
    } else if (arg == "--rel-tol") {
      args.tolerance.rel = parseDouble(value("--rel-tol"), "--rel-tol");
    } else if (arg == "--exact") {
      args.exact = true;
    } else if (arg == "--time") {
      args.time = true;
    } else if (arg == "--flavour") {
      args.flavour = value("--flavour");
    } else if (arg == "--tmin") {
      args.t_min_k = parseDouble(value("--tmin"), "--tmin");
    } else if (arg == "--tmax") {
      args.t_max_k = parseDouble(value("--tmax"), "--tmax");
    } else if (arg == "--points") {
      args.t_points = static_cast<std::size_t>(
          parseLong(value("--points"), 2, 4096, "--points"));
    } else if (arg == "--vectors") {
      args.vectors = static_cast<std::size_t>(
          parseLong(value("--vectors"), 1, 1000000, "--vectors"));
    } else if (arg == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          parseLong(value("--seed"), 0, LONG_MAX, "--seed"));
    } else if (arg == "--no-loading") {
      args.no_loading = true;
    } else if (arg == "--objective") {
      args.objective = value("--objective");
      if (args.objective != "min" && args.objective != "max") {
        throw UsageError("unknown --objective '" + args.objective +
                         "' (want min|max)");
      }
    } else if (arg == "--method") {
      args.search_method = value("--method");
      if (args.search_method != "exact" && args.search_method != "heuristic" &&
          args.search_method != "auto") {
        throw UsageError("unknown --method '" + args.search_method +
                         "' (want exact|heuristic|auto)");
      }
    } else if (arg == "--budget") {
      args.budget = static_cast<std::size_t>(
          parseLong(value("--budget"), 1, 1000000000, "--budget"));
    } else if (arg == "--cold") {
      args.cold = true;
    } else if (arg == "--socket") {
      args.socket_path = value("--socket");
    } else if (arg == "--port") {
      args.port =
          static_cast<int>(parseLong(value("--port"), 0, 65535, "--port"));
    } else if (arg == "--workers") {
      args.workers = static_cast<int>(
          parseLong(value("--workers"), 1, 1024, "--workers"));
    } else if (arg == "--queue") {
      args.queue_capacity = static_cast<std::size_t>(
          parseLong(value("--queue"), 0, 1000000, "--queue"));
    } else if (arg == "--plan-cache") {
      args.plan_cache_entries = static_cast<std::size_t>(
          parseLong(value("--plan-cache"), 0, 1000000, "--plan-cache"));
    } else if (arg == "--table-cache") {
      args.table_cache_entries = static_cast<std::size_t>(
          parseLong(value("--table-cache"), 0, 1000000, "--table-cache"));
    } else if (arg == "--samples") {
      args.samples = static_cast<std::size_t>(
          parseLong(value("--samples"), 1, 1000000, "--samples"));
    } else if (arg == "--temp") {
      args.temp_k = parseDouble(value("--temp"), "--temp");
    } else if (arg == "--idle-timeout-ms") {
      args.idle_timeout_ms = static_cast<int>(parseLong(
          value("--idle-timeout-ms"), 0, INT_MAX, "--idle-timeout-ms"));
    } else if (arg == "--write-timeout-ms") {
      args.write_timeout_ms = static_cast<int>(parseLong(
          value("--write-timeout-ms"), 0, INT_MAX, "--write-timeout-ms"));
    } else if (arg == "--quota-rps") {
      args.quota_rps = parseDouble(value("--quota-rps"), "--quota-rps");
    } else if (arg == "--quota-burst") {
      args.quota_burst = parseDouble(value("--quota-burst"), "--quota-burst");
    } else if (arg == "--faults") {
      args.faults_spec = value("--faults");
    } else if (arg == "--timeout-ms") {
      args.timeout_ms = static_cast<int>(
          parseLong(value("--timeout-ms"), 0, INT_MAX, "--timeout-ms"));
    } else if (arg == "--retries") {
      args.retries = static_cast<int>(
          parseLong(value("--retries"), 0, 1000, "--retries"));
    } else if (arg == "--deadline-ms") {
      args.deadline_ms = static_cast<std::uint64_t>(
          parseLong(value("--deadline-ms"), 1, LONG_MAX, "--deadline-ms"));
    } else if (arg == "--tenant") {
      args.tenant = value("--tenant");
    } else if (arg == "--id") {
      args.request_id = value("--id");
    } else if (arg == "--policy") {
      args.policy = value("--policy");
      if (args.policy != "random" && args.policy != "walk") {
        throw UsageError("unknown --policy '" + args.policy +
                         "' (want random|walk)");
      }
    } else if (!arg.empty() && arg[0] == '-') {
      throw UsageError("unknown option '" + arg + "'");
    } else {
      args.positionals.push_back(arg);
    }
  }
  return args;
}

/// Scientific-notation cell for leakage currents (fixed-precision
/// formatDouble would render nanoamps as 0.0000).
std::string formatSci(double value, int precision = 4) {
  std::ostringstream out;
  out << std::scientific << std::setprecision(precision) << value;
  return out.str();
}

std::string describeTemperature(const Scenario& sc) {
  if (sc.method == Method::kThermalSweep) {
    return formatDouble(sc.thermal.t_min_k, 0) + "-" +
           formatDouble(sc.thermal.t_max_k, 0);
  }
  return formatDouble(sc.temperature_k, 0);
}

std::string describeVectors(const Scenario& sc) {
  if (sc.method == Method::kMonteCarlo) {
    return std::to_string(sc.mc_samples) + " samples";
  }
  if (sc.method == Method::kOptimize) {
    // The search picks its own vectors; the policy is ignored.
    return std::string(toString(sc.optimize.objective)) + " search";
  }
  switch (sc.vectors.kind) {
    case VectorPolicy::Kind::kFixed:
      return "fixed";
    case VectorPolicy::Kind::kRandom:
      return std::to_string(sc.vectors.count) + " random";
    case VectorPolicy::Kind::kWalk:
      return std::to_string(sc.vectors.count) + "-step walk";
  }
  return "?";
}

void printTable(const TableWriter& table, const std::string& format,
                std::ostream& out) {
  if (format == "csv") {
    table.printCsv(out);
  } else {
    table.printText(out);
  }
}

/// Starts a fresh trace session when --trace-out was passed (coarse
/// level: phase spans only, so tracing stays cheap enough for every run).
void beginTracingIfRequested(const ParsedArgs& args) {
  if (!args.trace_out_path.empty()) {
    obs::enableTracing(obs::TraceLevel::kCoarse);
  }
}

/// Writes the requested observability artifacts after the workload ran.
/// Silent on success: `run --format json` streams the canonical golden
/// JSON to stdout, which a status line would corrupt.
void writeObsArtifacts(const ParsedArgs& args, const SuiteResult& result) {
  if (!args.metrics_out_path.empty()) {
    saveMetricsFile(args.metrics_out_path, result);
  }
  if (!args.trace_out_path.empty()) {
    obs::disableTracing();
    saveTraceFile(args.trace_out_path);
  }
}

int runList(const Registry& registry, const ParsedArgs& args,
            std::ostream& out) {
  requireOnlyFlags(args, {"--format"});
  if (!args.positionals.empty()) {
    throw UsageError("list takes no arguments");
  }
  if (args.format == "json") {
    throw UsageError("list supports --format table|csv only");
  }
  TableWriter scenarios({"scenario", "method", "circuit", "flavour", "T [K]",
                         "loading", "vectors"});
  for (const std::string& name : registry.names()) {
    const Scenario& sc = registry.get(name);
    scenarios.addRow({sc.name, toString(sc.method),
                      sc.method == Method::kMonteCarlo ? "-" : sc.circuit,
                      sc.flavour, describeTemperature(sc),
                      sc.with_loading ? "on" : "off", describeVectors(sc)});
  }
  printTable(scenarios, args.format, out);
  out << "\n";
  TableWriter suites({"suite", "scenarios"});
  for (const std::string& name : registry.suiteNames()) {
    suites.addRow({name, std::to_string(registry.suite(name).size())});
  }
  printTable(suites, args.format, out);
  return kExitOk;
}

int runRun(const Registry& registry, const ParsedArgs& args,
           std::ostream& out) {
  requireOnlyFlags(args, {"--threads", "--format", "--time", "--metrics-out",
                          "--trace-out"});
  if (args.positionals.size() != 1) {
    throw UsageError("run takes exactly one suite or scenario name");
  }
  if (args.time && args.format == "json") {
    // The JSON output is the canonical golden serialization; timing is a
    // diagnostic and deliberately never part of it.
    throw UsageError("--time supports --format table|csv only");
  }
  beginTracingIfRequested(args);
  const SuiteResult result =
      runSuite(registry, args.positionals[0], {args.threads});
  writeObsArtifacts(args, result);
  if (args.format == "json") {
    out << serializeSuite(result);
    return kExitOk;
  }
  TableWriter table({"scenario", "metric", "value"});
  for (const ScenarioResult& scenario : result.scenarios) {
    for (const Metric& metric : scenario.metrics) {
      table.addRow({scenario.name, metric.name,
                    formatCanonical(metric.value)});
    }
  }
  printTable(table, args.format, out);
  if (args.time) {
    // Timing now rides on the per-scenario registry deltas: one
    // deterministic stats layout at the end of the run.
    out << "\n" << statsReport(result, args.format);
  }
  return kExitOk;
}

int runStats(const Registry& registry, const ParsedArgs& args,
             std::ostream& out) {
  requireOnlyFlags(args, {"--threads", "--format", "--metrics-out",
                          "--trace-out"});
  if (args.positionals.size() != 1) {
    throw UsageError("stats takes exactly one suite or scenario name");
  }
  if (args.format == "json") {
    throw UsageError(
        "stats supports --format table|csv only (use --metrics-out for the "
        "JSON snapshot)");
  }
  beginTracingIfRequested(args);
  const SuiteResult result =
      runSuite(registry, args.positionals[0], {args.threads});
  writeObsArtifacts(args, result);
  out << statsReport(result, args.format);
  return kExitOk;
}

int runRecord(const Registry& registry, const ParsedArgs& args,
              std::ostream& out) {
  requireOnlyFlags(args, {"--out", "--threads"});
  if (args.positionals.size() != 1) {
    throw UsageError("record takes exactly one suite name");
  }
  if (args.out_path.empty()) {
    throw UsageError("record requires --out FILE");
  }
  const SuiteResult result =
      runSuite(registry, args.positionals[0], {args.threads});
  saveSuiteFile(args.out_path, result);
  out << "recorded " << result.scenarios.size() << " scenario(s) of suite '"
      << result.suite << "' to " << args.out_path << "\n";
  return kExitOk;
}

int runCheck(const Registry& registry, const ParsedArgs& args,
             std::ostream& out) {
  requireOnlyFlags(args,
                   {"--golden", "--threads", "--abs-tol", "--rel-tol",
                    "--exact"});
  if (args.positionals.size() != 1) {
    throw UsageError("check takes exactly one suite name");
  }
  if (args.golden_path.empty()) {
    throw UsageError("check requires --golden FILE");
  }
  const SuiteResult golden = loadSuiteFile(args.golden_path);
  const SuiteResult live =
      runSuite(registry, args.positionals[0], {args.threads});
  CheckOptions options;
  options.tolerance = args.exact ? Tolerance{0.0, 0.0} : args.tolerance;
  const CheckReport report = checkSuite(golden, live, options);
  out << report.format();
  return report.passed() ? kExitOk : kExitFailure;
}

int runThermal(const ParsedArgs& args, std::ostream& out) {
  requireOnlyFlags(args, {"--flavour", "--tmin", "--tmax", "--points",
                          "--vectors", "--seed", "--no-loading", "--cold",
                          "--threads", "--format", "--metrics-out",
                          "--trace-out"});
  if (args.positionals.size() != 1) {
    throw UsageError("thermal takes exactly one circuit name");
  }
  if (args.format == "json") {
    throw UsageError("thermal supports --format table|csv only");
  }
  if (!(args.t_min_k > 0.0)) {
    // The device models divide by thermalVoltage(T): 0 K is not a
    // physically evaluable corner, reject it as a usage error.
    throw UsageError("--tmin must be a positive temperature in kelvin");
  }
  if (!(args.t_max_k > args.t_min_k)) {
    throw UsageError("--tmax must exceed --tmin");
  }

  beginTracingIfRequested(args);
  const logic::LogicNetlist netlist = buildCircuit(args.positionals[0]);
  const std::vector<std::vector<bool>> patterns = expandVectors(
      VectorPolicy::random(args.vectors, args.seed),
      netlist.sourceNets().size());

  thermal::ThermalSweepOptions options;
  options.grid = {args.t_min_k, args.t_max_k, args.t_points};
  options.with_loading = !args.no_loading;
  if (args.cold) {
    // Cold seeds everywhere: the bitwise reference of the warm default.
    options.characterization.solver_path =
        core::CharacterizationOptions::SolverPath::kCompiled;
  }
  const thermal::ThermalSweepEngine engine(
      technologyForFlavour(args.flavour), options);

  engine::BatchRunner runner(engine::BatchOptions{.threads = args.threads});
  const thermal::ThermalCurve curve = engine.run(netlist, patterns, runner);

  // The thermal command has no SuiteResult; its metrics document carries
  // the process-wide snapshot with an empty scenario list.
  SuiteResult obs_result;
  obs_result.suite = "thermal:" + args.positionals[0];
  writeObsArtifacts(args, obs_result);

  out << "thermal sweep: " << args.positionals[0] << " x " << args.flavour
      << ", " << curve.points.size() << " temperatures, " << curve.vectors
      << " vectors, loading " << (options.with_loading ? "on" : "off")
      << "\n\n";
  TableWriter table(
      {"T [K]", "sub [A]", "gate [A]", "btbt [A]", "total [A]"});
  for (const thermal::ThermalPoint& point : curve.points) {
    table.addRow({formatDouble(point.temperature_k, 1),
                  formatSci(point.mean.subthreshold),
                  formatSci(point.mean.gate), formatSci(point.mean.btbt),
                  formatSci(point.mean.total())});
  }
  printTable(table, args.format, out);

  out << "\n";
  TableWriter fits({"component", "model", "parameters", "max err [%]",
                    "rms err [%]"});
  const std::pair<const char*, const thermal::ModelComparison*> rows[] = {
      {"subthreshold", &curve.subthreshold},
      {"gate", &curve.gate},
      {"btbt", &curve.btbt},
      {"total", &curve.total}};
  for (const auto& [name, fit] : rows) {
    fits.addRow({name, "linear",
                 "slope " + formatSci(fit->linear.slope, 3) + " A/K",
                 formatDouble(100.0 * fit->linear.error.max_rel, 2),
                 formatDouble(100.0 * fit->linear.error.rms_rel, 2)});
    fits.addRow({name, "exponential",
                 fit->exponential.valid
                     ? "rate " + formatSci(fit->exponential.rate, 3) + " 1/K"
                     : "(invalid: non-positive samples)",
                 formatDouble(100.0 * fit->exponential.error.max_rel, 2),
                 formatDouble(100.0 * fit->exponential.error.rms_rel, 2)});
    fits.addRow({name, "piecewise",
                 "break " + formatDouble(fit->piecewise.break_t, 1) + " K",
                 formatDouble(100.0 * fit->piecewise.error.max_rel, 2),
                 formatDouble(100.0 * fit->piecewise.error.rms_rel, 2)});
  }
  printTable(fits, args.format, out);
  out << "\nbest model per component: sub "
      << curve.subthreshold.bestModel() << ", gate "
      << curve.gate.bestModel() << ", btbt " << curve.btbt.bestModel()
      << ", total " << curve.total.bestModel() << "\n";
  return kExitOk;
}

int runOptimizeCommand(const ParsedArgs& args, std::ostream& out) {
  requireOnlyFlags(args, {"--objective", "--method", "--budget", "--seed",
                          "--flavour", "--temp", "--no-loading", "--threads",
                          "--format", "--metrics-out", "--trace-out"});
  if (args.positionals.size() != 1) {
    throw UsageError("optimize takes exactly one circuit name");
  }
  if (args.format == "json") {
    throw UsageError("optimize supports --format table|csv only");
  }
  if (!(args.temp_k > 0.0)) {
    // Same reasoning as thermal: the device models divide by
    // thermalVoltage(T), so 0 K is a usage error, not a corner.
    throw UsageError("--temp must be a positive temperature in kelvin");
  }

  beginTracingIfRequested(args);
  // The command plans exactly like the optimize suite's scenarios, so it
  // prints the vectors and totals `nanoleak run optimize` pins.
  Scenario sc;
  sc.method = Method::kOptimize;
  sc.circuit = args.positionals[0];
  sc.flavour = args.flavour;
  sc.temperature_k = args.temp_k;
  sc.with_loading = !args.no_loading;
  const logic::LogicNetlist netlist = buildCircuit(sc.circuit);
  engine::BatchRunner runner(engine::BatchOptions{.threads = args.threads});
  const std::shared_ptr<const engine::PlanCache::Entry> entry =
      compiledPlan(sc, netlist, runner);
  const core::EstimationPlan& plan = *entry->plan;

  search::SearchOptions sopts;
  sopts.objective = search::objectiveFromString(args.objective);
  sopts.algorithm = search::algorithmFromString(args.search_method);
  sopts.budget = args.budget;
  sopts.seed = args.seed;
  const search::SearchResult result = search::optimizeVector(plan, sopts);

  // No SuiteResult for the ad-hoc command; like thermal, the metrics
  // document carries the process-wide snapshot with no scenario rows.
  SuiteResult obs_result;
  obs_result.suite = "optimize:" + args.positionals[0];
  writeObsArtifacts(args, obs_result);

  std::string bits(result.vector.size(), '0');
  for (std::size_t i = 0; i < result.vector.size(); ++i) {
    if (result.vector[i]) {
      bits[i] = '1';
    }
  }
  const std::vector<logic::NetId> sources = netlist.sourceNets();

  out << "optimize: " << args.positionals[0] << " x " << args.flavour << " @ "
      << formatDouble(args.temp_k, 0) << " K, objective "
      << args.objective << ", engine "
      << (result.exact ? "exact" : "heuristic") << ", loading "
      << (sc.with_loading ? "on" : "off") << "\n\n";

  TableWriter summary({"quantity", "value"});
  summary.addRow({"sources", std::to_string(result.vector.size())});
  summary.addRow({"gates", std::to_string(netlist.gateCount())});
  summary.addRow({"best vector", bits.empty() ? "(none)" : bits});
  summary.addRow({"total [A]", formatSci(result.total)});
  summary.addRow({"sub [A]", formatSci(result.leakage.subthreshold)});
  summary.addRow({"gate [A]", formatSci(result.leakage.gate)});
  summary.addRow({"btbt [A]", formatSci(result.leakage.btbt)});
  summary.addRow({"provably optimal", result.exact ? "yes" : "no"});
  summary.addRow({"nodes expanded",
                  std::to_string(result.stats.nodes_expanded)});
  summary.addRow({"leaf evals", std::to_string(result.stats.leaf_evals)});
  summary.addRow({"prunes", std::to_string(result.stats.prunes)});
  summary.addRow({"restarts", std::to_string(result.stats.restarts)});
  summary.addRow({"improvements",
                  std::to_string(result.stats.improvements)});
  summary.addRow({"root bound [A]",
                  formatSci(result.stats.root_min_bound) + " .. " +
                      formatSci(result.stats.root_max_bound)});
  printTable(summary, args.format, out);

  if (!sources.empty() && sources.size() <= 64) {
    out << "\n";
    TableWriter assigns({"input", "value"});
    for (std::size_t i = 0; i < sources.size(); ++i) {
      assigns.addRow({netlist.netName(sources[i]),
                      result.vector[i] ? "1" : "0"});
    }
    printTable(assigns, args.format, out);
  }
  return kExitOk;
}

/// SIGINT/SIGTERM latch for `serve`: the handler may only touch a
/// sig_atomic_t, so a watcher thread translates it into the actual
/// requestShutdown() call.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void handleStopSignal(int) { g_stop_requested = 1; }

int runServe(const ParsedArgs& args, std::ostream& out) {
  requireOnlyFlags(args, {"--socket", "--port", "--workers", "--threads",
                          "--queue", "--plan-cache", "--table-cache",
                          "--idle-timeout-ms", "--write-timeout-ms",
                          "--quota-rps", "--quota-burst", "--faults",
                          "--metrics-out"});
  if (!args.positionals.empty()) {
    throw UsageError("serve takes no arguments");
  }
  if (args.socket_path.empty() && args.port < 0) {
    throw UsageError("serve requires --socket PATH and/or --port N");
  }
  if (!args.faults_spec.empty()) {
    try {
      util::fault::configureFaults(args.faults_spec);
    } catch (const Error& e) {
      throw UsageError(e.what());
    }
  } else {
    // No explicit spec: honor NANOLEAK_FAULTS so chaos harnesses can arm
    // faults without touching the daemon's command line.
    util::fault::configureFaultsFromEnv();
  }

  serve::ServerOptions options;
  options.socket_path = args.socket_path;
  options.tcp_port = args.port;
  options.workers = args.workers;
  options.threads = args.threads;
  options.queue_capacity = args.queue_capacity;
  options.plan_cache_entries = args.plan_cache_entries;
  options.table_cache_entries = args.table_cache_entries;
  options.idle_timeout_ms = args.idle_timeout_ms;
  options.write_timeout_ms = args.write_timeout_ms;
  options.quota_rps = args.quota_rps;
  options.quota_burst = args.quota_burst;

  serve::Server server(std::move(options));
  g_stop_requested = 0;
  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);
  server.start();
  out << "serve: listening";
  if (!args.socket_path.empty()) {
    out << " on " << args.socket_path;
  }
  if (args.port >= 0) {
    out << (args.socket_path.empty() ? " on" : " and") << " 127.0.0.1:"
        << server.tcpPort();
  }
  out << " (" << args.workers << " workers)" << std::endl;

  std::thread watcher([&server] {
    while (!server.shutdownRequested()) {
      if (g_stop_requested != 0) {
        server.requestShutdown();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  server.wait();
  watcher.join();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  if (!args.metrics_out_path.empty()) {
    // The daemon's whole life is one "suite" with no per-scenario rows;
    // the snapshot carries the serve.* / plan_cache.* counters the CI
    // smoke test asserts on.
    SuiteResult result;
    result.suite = "serve";
    saveMetricsFile(args.metrics_out_path, result);
  }
  out << "serve: drained and stopped\n";
  return kExitOk;
}

int runClient(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  requireOnlyFlags(args, {"--socket", "--port", "--id", "--flavour",
                          "--temp", "--policy", "--vectors", "--seed",
                          "--samples", "--tmin", "--tmax", "--points",
                          "--no-loading", "--timeout-ms", "--retries",
                          "--deadline-ms", "--tenant"});
  if (args.positionals.empty()) {
    throw UsageError(
        "client takes an op (ping|run|estimate|mc|thermal|stats|shutdown)");
  }
  if (args.socket_path.empty() == (args.port < 0)) {
    throw UsageError("client requires exactly one of --socket / --port");
  }

  ServeRequest request;
  request.id = args.request_id;
  try {
    request.op = serveOpFromString(args.positionals[0]);
  } catch (const Error& e) {
    throw UsageError(e.what());
  }
  Scenario& sc = request.scenario;
  // Build the request, then round-trip it through the codec so the
  // client resolves defaults and synthesizes the scenario name exactly
  // the way the daemon will.
  switch (request.op) {
    case ServeOp::kRun:
      if (args.positionals.size() != 2) {
        throw UsageError("client run takes a suite or scenario name");
      }
      request.target = args.positionals[1];
      break;
    case ServeOp::kEstimate:
      if (args.positionals.size() != 2) {
        throw UsageError("client estimate takes a circuit name");
      }
      sc.circuit = args.positionals[1];
      sc.flavour = args.flavour;
      sc.temperature_k = args.temp_k;
      sc.with_loading = !args.no_loading;
      sc.vectors =
          args.policy == "walk"
              ? VectorPolicy::walk(sawFlag(args, "--vectors") ? args.vectors
                                                              : 16,
                                   sawFlag(args, "--seed") ? args.seed : 1)
              : VectorPolicy::random(
                    sawFlag(args, "--vectors") ? args.vectors : 16,
                    sawFlag(args, "--seed") ? args.seed : 1);
      break;
    case ServeOp::kMonteCarlo:
      if (args.positionals.size() != 1) {
        throw UsageError("client mc takes no name argument");
      }
      sc.flavour = args.flavour;
      sc.temperature_k = args.temp_k;
      sc.mc_samples = args.samples;
      sc.mc_seed = args.seed;
      break;
    case ServeOp::kThermal:
      if (args.positionals.size() != 2) {
        throw UsageError("client thermal takes a circuit name");
      }
      sc.circuit = args.positionals[1];
      sc.flavour = args.flavour;
      sc.thermal.t_min_k = args.t_min_k;
      sc.thermal.t_max_k = args.t_max_k;
      sc.thermal.points = args.t_points;
      sc.with_loading = !args.no_loading;
      sc.vectors =
          VectorPolicy::random(sawFlag(args, "--vectors") ? args.vectors : 12,
                               sawFlag(args, "--seed") ? args.seed : 1);
      break;
    case ServeOp::kPing:
    case ServeOp::kStats:
    case ServeOp::kShutdown:
      if (args.positionals.size() != 1) {
        throw UsageError(std::string("client ") + toString(request.op) +
                         " takes no name argument");
      }
      if (args.deadline_ms != 0 || !args.tenant.empty()) {
        throw UsageError(std::string("--deadline-ms / --tenant do not "
                                     "apply to client ") +
                         toString(request.op));
      }
      break;
  }
  request.deadline_ms = args.deadline_ms;
  request.tenant = args.tenant;
  request = decodeRequest(encodeRequest(request));

  serve::ServeClient::Options client_options;
  client_options.connect_timeout_ms = args.timeout_ms;
  client_options.request_timeout_ms = args.timeout_ms;
  client_options.retries = args.retries;
  serve::ServeClient client =
      args.socket_path.empty()
          ? serve::ServeClient::connectTcp(
                static_cast<std::uint16_t>(args.port), client_options)
          : serve::ServeClient::connectUnix(args.socket_path,
                                            client_options);
  const ServeResponse response = client.call(request);
  if (response.status != ServeStatus::kOk) {
    err << "serve " << toString(response.status) << ": " << response.message
        << "\n";
    return kExitFailure;
  }
  if (response.payload.empty()) {
    // ping / shutdown acknowledgements have no payload; print something
    // greppable instead of nothing at all.
    out << toString(response.status) << "\n";
  } else {
    // Verbatim, no decoration: `client run S` output must byte-match
    // `run S --format json`.
    out << response.payload;
  }
  return kExitOk;
}

}  // namespace

int cliMain(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  try {
    const ParsedArgs args = parseArgs(argc, argv);
    const Registry registry = builtinRegistry();
    if (args.command == "list") {
      return runList(registry, args, out);
    }
    if (args.command == "run") {
      return runRun(registry, args, out);
    }
    if (args.command == "stats") {
      return runStats(registry, args, out);
    }
    if (args.command == "record") {
      return runRecord(registry, args, out);
    }
    if (args.command == "check") {
      return runCheck(registry, args, out);
    }
    if (args.command == "thermal") {
      return runThermal(args, out);
    }
    if (args.command == "optimize") {
      return runOptimizeCommand(args, out);
    }
    if (args.command == "serve") {
      return runServe(args, out);
    }
    if (args.command == "client") {
      return runClient(args, out, err);
    }
    if (args.command == "help" || args.command == "--help" ||
        args.command == "-h") {
      out << kUsage;
      return kExitOk;
    }
    throw UsageError("unknown command '" + args.command + "'");
  } catch (const UsageError& e) {
    err << "error: " << e.what() << "\n\n" << kUsage;
    return kExitUsage;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return kExitFailure;
  } catch (const std::exception& e) {
    // Anything else (bad_alloc, filesystem surprises) still maps to a
    // clean failure exit instead of escaping the "never throws" contract.
    err << "error: " << e.what() << "\n";
    return kExitFailure;
  }
}

}  // namespace nanoleak::scenario
