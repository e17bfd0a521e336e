// The `nanoleak optimize` subcommand end to end, in-process through
// cliMain: usage-error exit codes, table/csv output, and the
// observability artifacts (--metrics-out / --trace-out) with live
// search.* counters.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/cli.h"
#include "scenario/metrics_io.h"
#include "util/json.h"

namespace nanoleak::scenario {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult runCli(std::vector<const char*> args) {
  args.insert(args.begin(), "nanoleak");
  std::ostringstream out;
  std::ostringstream err;
  const int code =
      cliMain(static_cast<int>(args.size()), args.data(), out, err);
  return {code, out.str(), err.str()};
}

TEST(OptimizeCliTest, UsageErrorsExitWithCode2AndPrintUsage) {
  for (const std::vector<const char*>& args :
       std::vector<std::vector<const char*>>{
           {"optimize"},                                 // missing circuit
           {"optimize", "c17", "extra"},                 // too many names
           {"optimize", "c17", "--objective", "median"},
           {"optimize", "c17", "--method", "magic"},
           {"optimize", "c17", "--budget", "0"},
           {"optimize", "c17", "--budget", "many"},
           {"optimize", "c17", "--format", "json"},      // table/csv only
           {"optimize", "c17", "--temp", "0"},           // 0 K rejected
           {"optimize", "c17", "--temp", "inf"},
           {"optimize", "c17", "--tmin", "250"},         // thermal-only flag
           {"optimize", "c17", "--out", "f"},            // record-only flag
           {"run", "ci", "--objective", "min"},          // optimize-only flag
           {"thermal", "c17", "--budget", "4"},          // optimize-only flag
       }) {
    const CliResult result = runCli(args);
    EXPECT_EQ(result.exit_code, kExitUsage)
        << args[0] << " " << (args.size() > 1 ? args[1] : "");
    EXPECT_NE(result.err.find("usage:"), std::string::npos);
    EXPECT_NE(result.err.find("error:"), std::string::npos);
  }
}

TEST(OptimizeCliTest, UnknownCircuitIsARuntimeFailure) {
  const CliResult result = runCli({"optimize", "no_such_circuit"});
  EXPECT_EQ(result.exit_code, kExitFailure);
  EXPECT_NE(result.err.find("no_such_circuit"), std::string::npos);
}

TEST(OptimizeCliTest, ExactRunPrintsSummaryAndAssignments) {
  const CliResult result = runCli({"optimize", "c17", "--method", "exact"});
  ASSERT_EQ(result.exit_code, kExitOk) << result.err;
  EXPECT_NE(result.out.find("objective min"), std::string::npos);
  EXPECT_NE(result.out.find("engine exact"), std::string::npos);
  EXPECT_NE(result.out.find("best vector"), std::string::npos);
  EXPECT_NE(result.out.find("provably optimal"), std::string::npos);
  EXPECT_NE(result.out.find("yes"), std::string::npos);
  EXPECT_NE(result.out.find("prunes"), std::string::npos);
  // The per-input assignment table names c17's primary inputs.
  EXPECT_NE(result.out.find("G1"), std::string::npos);
}

TEST(OptimizeCliTest, HeuristicCsvRunReportsRestarts) {
  const CliResult result =
      runCli({"optimize", "c17", "--objective", "max", "--method",
              "heuristic", "--budget", "16", "--seed", "3", "--format",
              "csv"});
  ASSERT_EQ(result.exit_code, kExitOk) << result.err;
  EXPECT_NE(result.out.find("engine heuristic"), std::string::npos);
  EXPECT_NE(result.out.find("objective max"), std::string::npos);
  EXPECT_NE(result.out.find("quantity,value"), std::string::npos);
  EXPECT_NE(result.out.find("restarts"), std::string::npos);
  EXPECT_NE(result.out.find("provably optimal,no"), std::string::npos);
}

TEST(OptimizeCliTest, PrintsWhatTheOptimizeGoldenPins) {
  // The command plans like the optimize suite's scenarios, so `nanoleak
  // optimize c17` reports what tests/golden/optimize.json pins for
  // optimize/c17/d25s/300K/min: best_vector_lo32 = 18 (sources 1 and 4
  // high) and best_total_A = 1.6944988688237507e-05.
  const CliResult result = runCli({"optimize", "c17", "--format", "csv"});
  ASSERT_EQ(result.exit_code, kExitOk) << result.err;
  EXPECT_NE(result.out.find("best vector,01001\n"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("total [A],1.6945e-05\n"), std::string::npos)
      << result.out;
}

TEST(OptimizeCliTest, WritesParseableArtifactsWithSearchCounters) {
  const std::string metrics_path =
      testing::TempDir() + "optimize_metrics.json";
  const std::string trace_path = testing::TempDir() + "optimize_trace.json";
  const CliResult result = runCli(
      {"optimize", "c17", "--metrics-out", metrics_path.c_str(),
       "--trace-out", trace_path.c_str()});
  ASSERT_EQ(result.exit_code, kExitOk) << result.err;

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good()) << metrics_path;
  std::stringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  const util::JsonValue metrics =
      util::parseJson(metrics_text.str(), "metrics artifact");
  const util::JsonValue* suite = metrics.find("suite");
  ASSERT_NE(suite, nullptr);
  EXPECT_EQ(suite->string, "optimize:c17");
  const util::JsonValue* process = metrics.find("process");
  ASSERT_NE(process, nullptr);
  const util::JsonValue* counters = process->find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"search.nodes_expanded", "search.leaf_evals", "search.prunes",
        "search.exact_runs"}) {
    const util::JsonValue* counter = counters->find(name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_GT(counter->number, 0.0) << name;
  }

  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good()) << trace_path;
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  const util::JsonValue trace =
      util::parseJson(trace_text.str(), "trace artifact");
  const util::JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_search_span = false;
  for (const util::JsonValue& event : events->array) {
    const util::JsonValue* name = event.find("name");
    saw_search_span =
        saw_search_span || (name != nullptr && name->string == "search.exact");
  }
  EXPECT_TRUE(saw_search_span);
}

}  // namespace
}  // namespace nanoleak::scenario
