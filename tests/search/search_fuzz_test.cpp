// Seeded fuzz cross-check: random small .bench circuits (PR-3
// generator style: narrow + wide gates, shared fanout, optional DFFs
// whose outputs become extra sources) are searched exhaustively,
// exactly, and heuristically. Any disagreement fails with the offending
// seed AND the circuit's .bench text in the message, so every
// counterexample is reproducible from the log alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/characterizer.h"
#include "logic/bench_io.h"
#include "search/optimizer.h"
#include "util/rng.h"

namespace nanoleak::search {
namespace {

/// Coarse loading grid + no pin-current surfaces: tables characterize in
/// a fraction of the default, and coarse grids stress the bound caps (a
/// coarser grid means wider reachable rectangles to bound over).
const core::LeakageLibrary& fuzzLib() {
  static const core::LeakageLibrary library = [] {
    using gates::GateKind;
    core::CharacterizationOptions options;
    // Everything the .bench generator below can produce, including the
    // tree cells the parser introduces when decomposing wide gates.
    options.kinds = {GateKind::kInv,   GateKind::kBuf,   GateKind::kNand2,
                     GateKind::kNand3, GateKind::kNand4, GateKind::kNor2,
                     GateKind::kNor3,  GateKind::kNor4,  GateKind::kAnd2,
                     GateKind::kAnd3,  GateKind::kAnd4,  GateKind::kOr2,
                     GateKind::kOr3,   GateKind::kOr4,   GateKind::kXor2,
                     GateKind::kXnor2};
    options.loading_grid = {0.0, 1.0e-6, 3.0e-6, 6.0e-6};
    return core::Characterizer(device::defaultTechnology(), options)
        .characterize();
  }();
  return library;
}

/// Random small circuit as .bench text: 3-6 primary inputs plus 0-2
/// DFFs (at most 8 searchable sources, so the exhaustive oracle stays
/// instant), 8-24 gates over the full bench-spelled primitive set with
/// occasional wide gates to exercise tree decomposition. The text is
/// fully determined by the seed, and it IS the failure-message artifact.
std::string randomBenchText(std::uint64_t seed) {
  Rng rng(deriveStreamSeed(20050308, seed));
  const int n_pi = 3 + static_cast<int>(rng.uniformInt(4));    // 3..6
  const int n_dff = static_cast<int>(rng.uniformInt(3));       // 0..2
  const int n_gates = 8 + static_cast<int>(rng.uniformInt(17));  // 8..24

  std::string text;
  std::vector<std::string> driven;
  for (int i = 0; i < n_pi; ++i) {
    const std::string name = "pi" + std::to_string(i);
    text += "INPUT(" + name + ")\n";
    driven.push_back(name);
  }
  // DFF outputs are usable immediately; the statements come last.
  for (int i = 0; i < n_dff; ++i) {
    driven.push_back("q" + std::to_string(i));
  }

  const char* kOps[] = {"AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT",
                        "BUFF"};
  std::vector<std::string> gate_outputs;
  for (int g = 0; g < n_gates; ++g) {
    const std::string op = kOps[rng.uniformInt(8)];
    std::size_t arity;
    if (op == "NOT" || op == "BUFF") {
      arity = 1;
    } else if (rng.bernoulli(0.15) && op != "XOR" && op != "XNOR") {
      arity = 5 + rng.uniformInt(3);  // wide: 5..7, decomposed into trees
    } else if (op == "XOR" || op == "XNOR") {
      arity = 2;
    } else {
      arity = 2 + rng.uniformInt(3);  // 2..4
    }
    const std::string out = "g" + std::to_string(g);
    text += out + " = " + op + "(";
    for (std::size_t pin = 0; pin < arity; ++pin) {
      text += (pin == 0 ? "" : ", ") + driven[rng.uniformInt(driven.size())];
    }
    text += ")\n";
    driven.push_back(out);
    gate_outputs.push_back(out);
  }
  for (int i = 0; i < n_dff; ++i) {
    text += "q" + std::to_string(i) + " = DFF(" +
            gate_outputs[rng.uniformInt(gate_outputs.size())] + ")\n";
  }
  const int n_po = 1 + static_cast<int>(rng.uniformInt(3));
  for (int i = 0; i < n_po; ++i) {
    text += "OUTPUT(" + gate_outputs[rng.uniformInt(gate_outputs.size())] +
            ")\n";
  }
  return text;
}

TEST(SearchFuzzTest, ExactAndHeuristicAgreeWithExhaustiveOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string bench = randomBenchText(seed);
    SCOPED_TRACE("reproduce with seed " + std::to_string(seed) +
                 ", circuit:\n" + bench);
    const logic::LogicNetlist netlist = logic::parseBenchString(bench);
    const core::EstimationPlan plan(netlist, fuzzLib(), {});
    const std::size_t n = plan.sourceCount();
    ASSERT_GE(n, 3u);
    ASSERT_LE(n, 8u);

    const ExhaustiveResult oracle = exhaustiveSearch(plan);
    for (const Objective objective : {Objective::kMin, Objective::kMax}) {
      SCOPED_TRACE(toString(objective));
      const SearchResult& truth =
          objective == Objective::kMin ? oracle.min : oracle.max;

      const SearchResult exact = exactSearch(plan, objective);
      EXPECT_EQ(exact.total, truth.total);
      EXPECT_EQ(exact.vector, truth.vector);
      EXPECT_EQ(exact.leakage.subthreshold, truth.leakage.subthreshold);
      EXPECT_EQ(exact.leakage.gate, truth.leakage.gate);
      EXPECT_EQ(exact.leakage.btbt, truth.leakage.btbt);
      EXPECT_LE(exact.stats.leaf_evals, std::uint64_t{1} << n);
      if (n >= 4) {
        EXPECT_GE(exact.stats.prunes, 1u);
      }

      SearchOptions options;
      options.objective = objective;
      options.algorithm = Algorithm::kHeuristic;
      options.budget = 48;
      options.seed = seed;
      const SearchResult heur = heuristicSearch(plan, options);
      if (objective == Objective::kMin) {
        EXPECT_GE(heur.total, truth.total);
      } else {
        EXPECT_LE(heur.total, truth.total);
      }
    }
  }
}

TEST(SearchFuzzTest, NoLoadingFuzzAgreesToo) {
  // The no-loading accumulation has near-point bounds - a different prune
  // regime worth fuzzing separately.
  for (std::uint64_t seed = 9; seed <= 12; ++seed) {
    const std::string bench = randomBenchText(seed);
    SCOPED_TRACE("reproduce with seed " + std::to_string(seed) +
                 ", circuit:\n" + bench);
    const logic::LogicNetlist netlist = logic::parseBenchString(bench);
    core::EstimatorOptions options;
    options.with_loading = false;
    const core::EstimationPlan plan(netlist, fuzzLib(), options);
    const ExhaustiveResult oracle = exhaustiveSearch(plan);
    for (const Objective objective : {Objective::kMin, Objective::kMax}) {
      const SearchResult exact = exactSearch(plan, objective);
      const SearchResult& truth =
          objective == Objective::kMin ? oracle.min : oracle.max;
      EXPECT_EQ(exact.total, truth.total) << toString(objective);
      EXPECT_EQ(exact.vector, truth.vector) << toString(objective);
    }
  }
}

}  // namespace
}  // namespace nanoleak::search
