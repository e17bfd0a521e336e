#include "scenario/metrics_io.h"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/golden_file.h"
#include "util/error.h"
#include "util/json.h"
#include "util/table_writer.h"

namespace nanoleak::scenario {

namespace {

/// Embeds a Snapshot::toJson(indent) block as the value of a key: the
/// first line's indent is stripped (the key provides the position),
/// subsequent lines keep theirs.
std::string embedJson(const std::string& block) {
  std::size_t start = 0;
  while (start < block.size() && block[start] == ' ') {
    ++start;
  }
  return block.substr(start);
}

}  // namespace

std::string metricsJson(const SuiteResult& result) {
  std::string out;
  out += "{\n";
  out += "  \"format\": \"" + std::string(kMetricsFormat) + "\",\n";
  out += "  \"suite\": \"" + util::escapeJson(result.suite) + "\",\n";
  out += "  \"process\": " + embedJson(obs::snapshot().toJson(2)) + ",\n";
  out += "  \"scenarios\": [";
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    const ScenarioResult& scenario = result.scenarios[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"name\": \"" + util::escapeJson(scenario.name) + "\",\n";
    out += "      \"wall_seconds\": " + formatCanonical(scenario.wall_seconds)
           + ",\n";
    out += "      \"node_solves\": " + std::to_string(scenario.node_solves) +
           ",\n";
    out += "      \"delta\": " + embedJson(scenario.obs_delta.toJson(6)) +
           "\n";
    out += "    }";
  }
  out += result.scenarios.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void saveMetricsFile(const std::string& path, const SuiteResult& result) {
  writeTextFile(path, metricsJson(result), "saveMetricsFile");
}

void saveTraceFile(const std::string& path) {
  writeTextFile(path, obs::chromeTraceJson(), "saveTraceFile");
}

std::string statsReport(const SuiteResult& result,
                        const std::string& format) {
  std::ostringstream out;

  TableWriter per_scenario({"scenario", "wall [ms]", "node solves", "solves",
                            "batch solves", "batch fallbacks", "cache hits",
                            "cache misses"});
  double total_ms = 0.0;
  std::uint64_t total_node_solves = 0;
  std::uint64_t total_solves = 0;
  std::uint64_t total_batch = 0;
  std::uint64_t total_fallbacks = 0;
  std::uint64_t total_hits = 0;
  std::uint64_t total_misses = 0;
  for (const ScenarioResult& scenario : result.scenarios) {
    const double ms = 1e3 * scenario.wall_seconds;
    const std::uint64_t solves =
        scenario.obs_delta.counterValue("solver.solves");
    const std::uint64_t batch =
        scenario.obs_delta.counterValue("solver.batch_solves");
    const std::uint64_t fallbacks =
        scenario.obs_delta.counterValue("solver.batch_fallbacks");
    const std::uint64_t hits =
        scenario.obs_delta.counterValue("table_cache.hits");
    const std::uint64_t misses =
        scenario.obs_delta.counterValue("table_cache.misses");
    total_ms += ms;
    total_node_solves += scenario.node_solves;
    total_solves += solves;
    total_batch += batch;
    total_fallbacks += fallbacks;
    total_hits += hits;
    total_misses += misses;
    per_scenario.addRow({scenario.name, formatDouble(ms, 1),
                         std::to_string(scenario.node_solves),
                         std::to_string(solves), std::to_string(batch),
                         std::to_string(fallbacks), std::to_string(hits),
                         std::to_string(misses)});
  }
  per_scenario.addRow({"TOTAL", formatDouble(total_ms, 1),
                       std::to_string(total_node_solves),
                       std::to_string(total_solves),
                       std::to_string(total_batch),
                       std::to_string(total_fallbacks),
                       std::to_string(total_hits),
                       std::to_string(total_misses)});
  if (format == "csv") {
    per_scenario.printCsv(out);
  } else {
    per_scenario.printText(out);
  }

  // Suite-wide counter totals, summed over the per-scenario deltas so the
  // table covers exactly this suite's work (std::map keeps it sorted and
  // deterministic for equal counts).
  std::map<std::string, std::uint64_t> totals;
  for (const ScenarioResult& scenario : result.scenarios) {
    for (const auto& [name, value] : scenario.obs_delta.counters) {
      totals[name] += value;
    }
  }
  out << "\n";
  TableWriter counters({"counter", "total"});
  for (const auto& [name, value] : totals) {
    counters.addRow({name, std::to_string(value)});
  }
  if (format == "csv") {
    counters.printCsv(out);
  } else {
    counters.printText(out);
  }
  return out.str();
}

}  // namespace nanoleak::scenario
