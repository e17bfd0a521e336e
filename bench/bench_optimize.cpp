// Sleep-vector search bench: exhaustive enumeration vs branch-and-bound
// vs the heuristic engine on the small-circuit roster, reporting wall
// clock, pruning effectiveness (leaf evaluations vs 2^n) and bound
// quality (the root interval vs the true leakage range). Past the exact
// frontier it times the heuristic alone on s838 and s13207 (budget 64,
// min and max): its set-up (the bounds and the sources' static impacts),
// the whole search and the best total, reported without a gate.
//
// Doubles as a correctness gate: EXITS NON-ZERO when
//  - exact branch-and-bound disagrees with exhaustive enumeration on any
//    circuit (bit-identical optimum required, min and max), or
//  - the exact engine fails to prune (leaf evals not below 2^n), or
//  - the heuristic misses the optimum by more than the pinned quality
//    ratio (min: <= 1.05x the true minimum; max: >= 0.95x the true
//    maximum) under the default budget.
// CI runs `bench_optimize --quick` and fails the build on any of these.
//
// Emits bench/out/BENCH_optimize.json.
//
// usage: bench_optimize [--quick]
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/characterizer.h"
#include "logic/generators.h"
#include "scenario/scenario.h"
#include "search/bounds.h"
#include "search/optimizer.h"
#include "util/table_writer.h"

namespace {

using nanoleak::TableWriter;
using nanoleak::formatDouble;
using namespace nanoleak;

using Clock = std::chrono::steady_clock;

/// Evaluation budget of the heuristic rows past the exact frontier.
constexpr std::size_t kHeuristicBudget = 64;

template <typename Fn>
double timedSeconds(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct CircuitReport {
  std::string name;
  std::size_t sources = 0;
  std::uint64_t exhaustive_evals = 0;
  double exhaustive_s = 0.0;
  std::uint64_t exact_min_evals = 0;
  std::uint64_t exact_min_prunes = 0;
  double exact_s = 0.0;
  double heuristic_s = 0.0;
  double min_total = 0.0;
  double max_total = 0.0;
  double heur_min_total = 0.0;
  double heur_max_total = 0.0;
  double bound_cover_min = 0.0;  // root_min / true min (<= 1, closer = tighter)
  double bound_cover_max = 0.0;  // root_max / true max (>= 1, closer = tighter)
};

/// One heuristic run past the exact frontier.
struct HeuristicReport {
  std::string name;
  search::Objective objective = search::Objective::kMin;
  std::size_t sources = 0;
  double setup_s = 0.0;  // LeakageBounds + staticImpact, as the run starts
  double total_s = 0.0;  // the whole heuristicSearch call
  double best_total = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    quick = quick || std::strcmp(argv[i], "--quick") == 0;
  }

  std::vector<std::string> circuits = {"c17", "mult22", "rca4"};
  if (!quick) {
    circuits.push_back("fanout_star6");
    circuits.push_back("inv_chain8");
    circuits.push_back("rca8");
  }

  bench::banner("sleep-vector search: exhaustive vs B&B vs heuristic");
  std::cout << "characterizing d25s tables...\n";
  core::CharacterizationOptions char_options;
  char_options.kinds = core::generatorGateKinds();
  const core::LeakageLibrary library =
      core::Characterizer(device::defaultTechnology(), char_options)
          .characterize();

  std::vector<std::string> failures;
  std::vector<CircuitReport> reports;

  for (const std::string& name : circuits) {
    const logic::LogicNetlist netlist = scenario::buildCircuit(name);
    const core::EstimationPlan plan(netlist, library, {});
    CircuitReport report;
    report.name = name;
    report.sources = plan.sourceCount();

    search::ExhaustiveResult oracle;
    report.exhaustive_s =
        timedSeconds([&] { oracle = search::exhaustiveSearch(plan); });
    report.exhaustive_evals = oracle.min.stats.leaf_evals;
    report.min_total = oracle.min.total;
    report.max_total = oracle.max.total;

    search::SearchResult exact_min;
    search::SearchResult exact_max;
    report.exact_s = timedSeconds([&] {
      exact_min = search::exactSearch(plan, search::Objective::kMin);
      exact_max = search::exactSearch(plan, search::Objective::kMax);
    });
    report.exact_min_evals = exact_min.stats.leaf_evals;
    report.exact_min_prunes = exact_min.stats.prunes;
    report.bound_cover_min =
        exact_min.stats.root_min_bound / oracle.min.total;
    report.bound_cover_max =
        exact_max.stats.root_max_bound / oracle.max.total;

    if (exact_min.total != oracle.min.total ||
        exact_min.vector != oracle.min.vector) {
      failures.push_back(name + ": exact min disagrees with exhaustive (" +
                         formatDouble(exact_min.total * 1e6, 9) + "e-6 vs " +
                         formatDouble(oracle.min.total * 1e6, 9) + "e-6 A)");
    }
    if (exact_max.total != oracle.max.total ||
        exact_max.vector != oracle.max.vector) {
      failures.push_back(name + ": exact max disagrees with exhaustive");
    }
    if (report.sources >= 4 &&
        exact_min.stats.leaf_evals >= report.exhaustive_evals) {
      failures.push_back(name + ": exact search did not prune (" +
                         std::to_string(exact_min.stats.leaf_evals) + " of " +
                         std::to_string(report.exhaustive_evals) +
                         " leaves evaluated)");
    }

    search::SearchOptions heur;
    heur.algorithm = search::Algorithm::kHeuristic;
    heur.budget = 128;
    heur.seed = 20050307;
    search::SearchResult heur_min;
    search::SearchResult heur_max;
    report.heuristic_s = timedSeconds([&] {
      heur.objective = search::Objective::kMin;
      heur_min = search::heuristicSearch(plan, heur);
      heur.objective = search::Objective::kMax;
      heur_max = search::heuristicSearch(plan, heur);
    });
    report.heur_min_total = heur_min.total;
    report.heur_max_total = heur_max.total;
    if (heur_min.total > 1.05 * oracle.min.total) {
      failures.push_back(name + ": heuristic min quality regressed (" +
                         formatDouble(heur_min.total / oracle.min.total, 4) +
                         "x the true minimum, limit 1.05x)");
    }
    if (heur_max.total < 0.95 * oracle.max.total) {
      failures.push_back(name + ": heuristic max quality regressed (" +
                         formatDouble(heur_max.total / oracle.max.total, 4) +
                         "x the true maximum, limit 0.95x)");
    }
    reports.push_back(report);
  }

  std::vector<HeuristicReport> heuristic_reports;
  for (const char* name : {"s838", "s13207"}) {
    const logic::LogicNetlist netlist = scenario::buildCircuit(name);
    const core::EstimationPlan plan(netlist, library, {});
    for (const search::Objective objective :
         {search::Objective::kMin, search::Objective::kMax}) {
      HeuristicReport report;
      report.name = name;
      report.objective = objective;
      report.sources = plan.sourceCount();
      report.setup_s = timedSeconds([&] {
        const search::LeakageBounds bounds(plan);
        search::staticImpact(plan, bounds);
      });
      search::SearchOptions options;
      options.algorithm = search::Algorithm::kHeuristic;
      options.objective = objective;
      options.budget = kHeuristicBudget;
      options.seed = 20050307;
      search::SearchResult result;
      report.total_s = timedSeconds(
          [&] { result = search::heuristicSearch(plan, options); });
      report.best_total = result.total;
      heuristic_reports.push_back(report);
    }
  }

  TableWriter table({"circuit", "n", "2^n", "B&B evals", "prunes",
                     "exh [ms]", "B&B [ms]", "heur [ms]", "range [x]",
                     "root cover"});
  for (const CircuitReport& r : reports) {
    table.addRow(
        {r.name, std::to_string(r.sources),
         std::to_string(std::uint64_t{1} << r.sources),
         std::to_string(r.exact_min_evals),
         std::to_string(r.exact_min_prunes),
         formatDouble(r.exhaustive_s * 1e3, 1),
         formatDouble(r.exact_s * 1e3, 1),
         formatDouble(r.heuristic_s * 1e3, 1),
         formatDouble(r.max_total / r.min_total, 2),
         formatDouble(r.bound_cover_min, 3) + ".." +
             formatDouble(r.bound_cover_max, 3)});
  }
  table.printText(std::cout);
  std::cout << "range [x] = true max/min leakage ratio (the sleep-vector "
               "payoff); root cover = root bound interval relative to the "
               "true extremes (1.000 = tight).\n\n";

  TableWriter heuristic_table({"circuit", "n", "objective", "set-up [ms]",
                               "heur [ms]", "best total [uA]"});
  for (const HeuristicReport& r : heuristic_reports) {
    heuristic_table.addRow({r.name, std::to_string(r.sources),
                            search::toString(r.objective),
                            formatDouble(r.setup_s * 1e3, 2),
                            formatDouble(r.total_s * 1e3, 2),
                            formatDouble(r.best_total * 1e6, 3)});
  }
  heuristic_table.printText(std::cout);
  std::cout << "heuristic past the exact frontier, budget "
            << kHeuristicBudget
            << " (report only): set-up = the bounds and the static impacts "
               "the run starts with, heur = the whole search.\n";

  std::ostringstream json;
  json << "{\n  \"workload\": \"optimize\",\n  \"quick\": "
       << (quick ? "true" : "false") << ",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& r = reports[i];
    json << "    {\"circuit\": \"" << r.name << "\", \"sources\": "
         << r.sources << ", \"exhaustive_evals\": " << r.exhaustive_evals
         << ", \"bnb_evals\": " << r.exact_min_evals << ", \"bnb_prunes\": "
         << r.exact_min_prunes << ",\n     \"exhaustive_s\": "
         << formatDouble(r.exhaustive_s, 5) << ", \"bnb_s\": "
         << formatDouble(r.exact_s, 5) << ", \"heuristic_s\": "
         << formatDouble(r.heuristic_s, 5) << ",\n     \"min_total_A\": "
         << r.min_total << ", \"max_total_A\": " << r.max_total
         << ", \"heur_min_ratio\": "
         << formatDouble(r.heur_min_total / r.min_total, 6)
         << ", \"heur_max_ratio\": "
         << formatDouble(r.heur_max_total / r.max_total, 6)
         << ",\n     \"root_cover_min\": "
         << formatDouble(r.bound_cover_min, 6) << ", \"root_cover_max\": "
         << formatDouble(r.bound_cover_max, 6) << "}"
         << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"heuristic_runs\": [\n";
  for (std::size_t i = 0; i < heuristic_reports.size(); ++i) {
    const HeuristicReport& r = heuristic_reports[i];
    json << "    {\"circuit\": \"" << r.name << "\", \"objective\": \""
         << search::toString(r.objective) << "\", \"sources\": "
         << r.sources << ", \"budget\": " << kHeuristicBudget
         << ", \"setup_ms\": "
         << formatDouble(r.setup_s * 1e3, 3) << ", \"total_ms\": "
         << formatDouble(r.total_s * 1e3, 3) << ", \"best_total_A\": "
         << r.best_total << "}"
         << (i + 1 < heuristic_reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"failures\": " << failures.size() << "\n}\n";
  const std::string out_path = bench::outPath("BENCH_optimize.json");
  std::ofstream out(out_path);
  if (out) {
    out << json.str();
    std::cout << "\nwrote " << out_path << "\n";
  } else {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }

  if (!failures.empty()) {
    std::cerr << "\nSEARCH GATE FAILURES:\n";
    for (const std::string& failure : failures) {
      std::cerr << "  " << failure << "\n";
    }
    return 1;
  }
  std::cout << "all search gates passed (exact == exhaustive, pruning "
               "live, heuristic within quality limits)\n";
  return 0;
}
