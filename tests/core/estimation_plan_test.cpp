// Equivalence contract of the compile-once / execute-many split: the
// EstimationPlan + EstimationWorkspace paths (full, incremental delta and
// pattern block) are bit-identical, on every LeakageBreakdown field and
// IL/OL of every gate, to referenceEstimate(), which evaluates the paper's
// Fig. 13 directly from the netlist and the library's VectorTables -
// across randomized circuits, patterns, single-bit-flip walks, full and
// partial pattern blocks, DFF-bearing netlists, the no-loading mode, and a
// hand-built library whose vectors have different axis lengths. The cases
// after it pin the Fig. 13 behaviour itself: plan compilation rejects
// what it cannot estimate, loading shows up where the paper says it does,
// and propagation beyond one level (the reference's alone) changes little.
#include "core/estimation_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/characterizer.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/order_free_sum.h"
#include "util/rng.h"

namespace nanoleak::core {
namespace {

const LeakageLibrary& sharedLibrary() {
  static const LeakageLibrary library = [] {
    CharacterizationOptions options;
    options.kinds = generatorGateKinds();
    options.loading_grid = {0.0, 0.5e-6, 1.0e-6, 2.0e-6, 3.0e-6, 6.0e-6};
    return Characterizer(device::defaultTechnology(), options).characterize();
  }();
  return library;
}

void expectExactlyEqual(const EstimateResult& expected,
                        const EstimateResult& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.total.subthreshold, actual.total.subthreshold)
      << context;
  EXPECT_EQ(expected.total.gate, actual.total.gate) << context;
  EXPECT_EQ(expected.total.btbt, actual.total.btbt) << context;
  ASSERT_EQ(expected.per_gate.size(), actual.per_gate.size()) << context;
  for (std::size_t g = 0; g < expected.per_gate.size(); ++g) {
    const GateEstimate& e = expected.per_gate[g];
    const GateEstimate& a = actual.per_gate[g];
    ASSERT_EQ(e.leakage.subthreshold, a.leakage.subthreshold)
        << context << " gate " << g;
    ASSERT_EQ(e.leakage.gate, a.leakage.gate) << context << " gate " << g;
    ASSERT_EQ(e.leakage.btbt, a.leakage.btbt) << context << " gate " << g;
    ASSERT_EQ(e.il, a.il) << context << " gate " << g;
    ASSERT_EQ(e.ol, a.ol) << context << " gate " << g;
  }
}

/// A delta on a cold workspace, random patterns (full path on a fresh and
/// a reused workspace), pattern blocks, then a single-bit-flip walk (delta
/// path), all checked against the reference.
void runEquivalence(const logic::LogicNetlist& netlist,
                    const LeakageLibrary& library,
                    const EstimatorOptions& options,
                    const std::string& context, std::uint64_t seed,
                    int random_patterns = 6, int flip_steps = 24) {
  const auto reference = [&](const std::vector<bool>& pattern) {
    return referenceEstimate(netlist, library, options, pattern);
  };
  const EstimationPlan plan(netlist, library, options);
  EstimationWorkspace ws(plan);
  EstimateResult plan_result;

  // Delta path on a cold workspace, one bit away from the all-zero state a
  // fresh workspace's buffers hold: it must not resume from that state.
  std::vector<bool> one_hot(plan.sourceCount(), false);
  one_hot[0] = true;
  EstimationWorkspace cold_delta(plan);
  plan.estimateDelta(one_hot, cold_delta, plan_result);
  expectExactlyEqual(reference(one_hot), plan_result, context + " delta/cold");

  Rng rng(seed);
  for (int i = 0; i < random_patterns; ++i) {
    const std::vector<bool> pattern =
        logic::randomPattern(plan.sourceCount(), rng);
    const EstimateResult expected = reference(pattern);

    // Full path on a cold workspace.
    EstimationWorkspace cold(plan);
    expectExactlyEqual(expected, plan.estimate(pattern, cold),
                       context + " full/cold pattern " + std::to_string(i));
    // Full path on the reused workspace.
    plan.estimate(pattern, ws, plan_result);
    expectExactlyEqual(expected, plan_result,
                       context + " full/warm pattern " + std::to_string(i));
    // Delta path fed an arbitrary previous state.
    plan.estimateDelta(pattern, ws, plan_result);
    expectExactlyEqual(expected, plan_result,
                       context + " delta/same pattern " + std::to_string(i));
  }

  // Pattern blocks: one full block and a partial one, per-gate and
  // totals-only, on the reused workspace.
  std::vector<std::vector<bool>> batch;
  for (std::size_t i = 0; i < kBlockPatterns + 3; ++i) {
    batch.push_back(logic::randomPattern(plan.sourceCount(), rng));
  }
  const std::span<const std::vector<bool>> all(batch);
  std::vector<EstimateResult> blocked(batch.size());
  std::vector<device::LeakageBreakdown> totals(batch.size());
  for (std::size_t first = 0; first < batch.size(); first += kBlockPatterns) {
    const std::size_t count =
        std::min(kBlockPatterns, batch.size() - first);
    plan.estimateBlock(all.subspan(first, count), ws,
                       std::span(blocked).subspan(first, count));
    plan.estimateBlockTotals(all.subspan(first, count), ws,
                             std::span(totals).subspan(first, count));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const EstimateResult expected = reference(batch[i]);
    const std::string where = context + " block pattern " + std::to_string(i);
    expectExactlyEqual(expected, blocked[i], where);
    EXPECT_EQ(expected.total.subthreshold, totals[i].subthreshold) << where;
    EXPECT_EQ(expected.total.gate, totals[i].gate) << where;
    EXPECT_EQ(expected.total.btbt, totals[i].btbt) << where;
  }
  // The blocks left the workspace's delta state valid.
  plan.estimateDelta(batch.back(), ws, plan_result);
  expectExactlyEqual(reference(batch.back()), plan_result,
                     context + " delta after blocks");

  // Single-bit-flip walk: the delta path's home turf.
  std::vector<bool> pattern = logic::randomPattern(plan.sourceCount(), rng);
  plan.estimate(pattern, ws, plan_result);
  for (int step = 0; step < flip_steps; ++step) {
    const std::size_t bit =
        static_cast<std::size_t>(rng.uniformInt(plan.sourceCount()));
    pattern[bit] = !pattern[bit];
    const EstimateResult expected = reference(pattern);
    const device::LeakageBreakdown total =
        plan.estimateDeltaTotal(pattern, ws);
    EXPECT_EQ(expected.total.subthreshold, total.subthreshold) << context;
    EXPECT_EQ(expected.total.gate, total.gate) << context;
    EXPECT_EQ(expected.total.btbt, total.btbt) << context;
    plan.estimateDelta(pattern, ws, plan_result);
    expectExactlyEqual(expected, plan_result,
                       context + " delta step " + std::to_string(step));
  }

  // Many-bit jump (exercises the dirty-fraction fallback).
  for (std::size_t bit = 0; bit < pattern.size(); bit += 2) {
    pattern[bit] = !pattern[bit];
  }
  plan.estimateDelta(pattern, ws, plan_result);
  expectExactlyEqual(reference(pattern), plan_result,
                     context + " delta jump");
}

/// Runs runEquivalence with and without loading.
void runAllModes(const logic::LogicNetlist& netlist,
                 const LeakageLibrary& library, const std::string& name,
                 std::uint64_t& seed, int random_patterns = 6,
                 int flip_steps = 24) {
  runEquivalence(netlist, library, EstimatorOptions{}, name, seed++,
                 random_patterns, flip_steps);
  EstimatorOptions no_loading;
  no_loading.with_loading = false;
  runEquivalence(netlist, library, no_loading, name + " no-loading",
                 seed++, random_patterns, flip_steps);
}

/// The s838-shaped synthetic: DFFs and several gate kinds.
logic::LogicNetlist s838Like() {
  return logic::synthesizeIscasLike(logic::iscasSpec("s838"), 20050307);
}

TEST(EstimationPlanTest, MatchesReferenceOnRandomCircuits) {
  struct Case {
    std::string name;
    logic::LogicNetlist netlist;
  };
  std::vector<Case> cases;
  cases.push_back({"c17", logic::c17()});
  cases.push_back({"fanout_star6", logic::fanoutStar(6)});
  cases.push_back({"mult44", logic::arrayMultiplier(4)});
  cases.push_back({"s838_like", s838Like()});

  std::uint64_t seed = 7;
  for (const Case& c : cases) {
    runAllModes(c.netlist, sharedLibrary(), c.name, seed);
  }
}

TEST(EstimationPlanTest, MatchesReferenceOnDffBoundary) {
  // Hand-built DFF netlist: gate -> DFF -> gate, so both the pseudo-PO
  // loading on the D net and the pseudo-PI source on the Q net are hit.
  logic::LogicNetlist nl;
  const logic::NetId in = nl.addNet("in");
  nl.markPrimaryInput(in);
  const logic::NetId mid = nl.addNet("mid");
  const logic::NetId q = nl.addNet("q");
  const logic::NetId out = nl.addNet("out");
  nl.addGate(gates::GateKind::kInv, {in}, mid);
  nl.addDff(mid, q);
  nl.addGate(gates::GateKind::kInv, {q}, out);
  nl.markPrimaryOutput(out);

  std::uint64_t seed = 99;
  runAllModes(nl, sharedLibrary(), "dff_pair", seed, /*random_patterns=*/4,
              /*flip_steps=*/8);
}

TEST(EstimationPlanTest, BlockScatterCoversFanoutEdgeCases) {
  // A gate reading one net on two pins (two scatters onto one net from one
  // gate), a net whose only load is a DFF D pin, and a primary output with
  // no fanout at all. Its three sources span exactly one full block.
  logic::LogicNetlist nl;
  const logic::NetId a = nl.addNet("a");
  const logic::NetId b = nl.addNet("b");
  nl.markPrimaryInput(a);
  nl.markPrimaryInput(b);
  const logic::NetId q = nl.addNet("q");
  const logic::NetId both = nl.addNet("both");
  const logic::NetId d = nl.addNet("d");
  const logic::NetId out = nl.addNet("out");
  nl.addGate(gates::GateKind::kNand2, {a, a}, both);
  nl.addGate(gates::GateKind::kNor2, {both, q}, d);
  nl.addDff(d, q);
  nl.addGate(gates::GateKind::kNand2, {q, b}, out);
  nl.markPrimaryOutput(out);
  nl.validate();

  std::vector<std::vector<bool>> all_patterns;
  for (unsigned bits = 0; bits < 8; ++bits) {
    all_patterns.push_back({(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0});
  }
  for (bool with_loading : {true, false}) {
    EstimatorOptions options;
    options.with_loading = with_loading;
    const EstimationPlan plan(nl, sharedLibrary(), options);
    EstimationWorkspace ws(plan);
    std::vector<EstimateResult> blocked(all_patterns.size());
    plan.estimateBlock(all_patterns, ws, blocked);
    for (std::size_t i = 0; i < all_patterns.size(); ++i) {
      expectExactlyEqual(
          referenceEstimate(nl, sharedLibrary(), options, all_patterns[i]),
          blocked[i],
          std::string("edge cases") + (with_loading ? "" : " no-loading") +
              " pattern " + std::to_string(i));
    }
  }
}

TEST(EstimationPlanTest, FavoursBlocksFromAQuarterOfTheBitsChanged) {
  const std::vector<bool> zeros(8, false);
  std::vector<bool> two = zeros;
  two[0] = two[5] = true;
  std::vector<bool> one = zeros;
  one[3] = true;
  using Run = std::vector<std::vector<bool>>;
  EXPECT_TRUE(favoursBlocks(Run{}));
  EXPECT_TRUE(favoursBlocks(Run{zeros}));
  EXPECT_TRUE(favoursBlocks(Run{zeros, two}));          // 2 of 8 bits
  EXPECT_FALSE(favoursBlocks(Run{zeros, one}));         // 1 of 8 bits
  EXPECT_FALSE(favoursBlocks(Run{zeros, one, zeros}));  // 1-bit walk
  EXPECT_TRUE(favoursBlocks(Run{zeros, one, two}));     // 4 of 16 bits
  EXPECT_FALSE(favoursBlocks(Run{zeros, std::vector<bool>(7, true)}));
}

/// A Grid2D of `rows` x `cols` values drawn from `rng` in [lo, hi).
Grid2D randomGrid(std::size_t rows, std::size_t cols, double lo, double hi,
                  Rng& rng) {
  Grid2D grid(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      grid.at(r, c) = rng.uniform(lo, hi);
    }
  }
  return grid;
}

/// A table on its own IL/OL axes, with random surfaces and pin currents.
VectorTable raggedTable(std::vector<double> il, std::vector<double> ol,
                        std::size_t pins, Rng& rng) {
  VectorTable table;
  const std::size_t rows = il.size();
  const std::size_t cols = ol.size();
  table.il_axis = Axis(std::move(il));
  table.ol_axis = Axis(std::move(ol));
  table.nominal = {rng.uniform(1e-9, 2e-9), rng.uniform(1e-9, 2e-9),
                   rng.uniform(1e-10, 2e-10)};
  table.isolated_nominal = {rng.uniform(1e-9, 2e-9), rng.uniform(1e-9, 2e-9),
                            rng.uniform(1e-10, 2e-10)};
  for (std::size_t pin = 0; pin < pins; ++pin) {
    table.pin_current.push_back(rng.uniform(-1.5e-6, 1.5e-6));
  }
  table.subthreshold = randomGrid(rows, cols, 1e-9, 3e-9, rng);
  table.gate = randomGrid(rows, cols, 1e-9, 3e-9, rng);
  table.btbt = randomGrid(rows, cols, 1e-10, 3e-10, rng);
  return table;
}

/// INV and NAND2 tables whose vectors all differ in axis lengths: single
/// point axes, short and long ones.
LeakageLibrary raggedLibrary() {
  Rng rng(1234);
  LeakageLibrary library;
  std::vector<VectorTable> inv;
  inv.push_back(raggedTable({0.0}, {0.0, 1e-6, 3e-6}, 1, rng));
  inv.push_back(raggedTable({0.0, 2e-6}, {0.0}, 1, rng));
  library.insert(gates::GateKind::kInv, std::move(inv));
  std::vector<VectorTable> nand;
  nand.push_back(raggedTable({0.0, 0.5e-6, 1e-6, 4e-6}, {0.0, 2e-6}, 2, rng));
  nand.push_back(raggedTable({0.0, 1e-6, 2e-6},
                             {0.0, 0.7e-6, 1.5e-6, 5e-6, 9e-6}, 2, rng));
  nand.push_back(raggedTable({0.0}, {0.0}, 2, rng));
  nand.push_back(raggedTable({0.0, 3e-6}, {0.0, 1e-6, 2e-6}, 2, rng));
  library.insert(gates::GateKind::kNand2, std::move(nand));
  return library;
}

/// A random INV/NAND2 netlist over 4 primary inputs and 3 DFFs.
logic::LogicNetlist raggedNetlist() {
  Rng rng(77);
  logic::LogicNetlist nl;
  std::vector<logic::NetId> pool;
  for (int i = 0; i < 4; ++i) {
    const logic::NetId pi = nl.addNet("pi" + std::to_string(i));
    nl.markPrimaryInput(pi);
    pool.push_back(pi);
  }
  std::vector<logic::NetId> qs;
  for (int i = 0; i < 2; ++i) {
    qs.push_back(nl.addNet("q" + std::to_string(i)));
    pool.push_back(qs.back());
  }
  for (int i = 0; i < 40; ++i) {
    const bool inv = rng.bernoulli(0.4);
    std::vector<logic::NetId> inputs;
    while (inputs.size() < (inv ? 1u : 2u)) {
      const logic::NetId net = pool[rng.uniformInt(pool.size())];
      if (inputs.empty() || inputs[0] != net) {
        inputs.push_back(net);
      }
    }
    const logic::NetId out = nl.addNet("n" + std::to_string(i));
    nl.addGate(inv ? gates::GateKind::kInv : gates::GateKind::kNand2,
               std::move(inputs), out);
    pool.push_back(out);
  }
  // Two D pins on one net, so a DFF load count of 2 is hit too.
  nl.addDff(pool[pool.size() - 1], qs[0]);
  nl.addDff(pool[pool.size() - 7], qs[1]);
  nl.addDff(pool[pool.size() - 7], nl.addNet("q2"));
  for (std::size_t i = pool.size() - 3; i < pool.size(); ++i) {
    nl.markPrimaryOutput(pool[i]);
  }
  nl.validate();
  return nl;
}

TEST(EstimationPlanTest, MatchesReferenceOnRaggedAxes) {
  const LeakageLibrary library = raggedLibrary();
  const logic::LogicNetlist nl = raggedNetlist();
  std::uint64_t seed = 500;
  runAllModes(nl, library, "ragged", seed, /*random_patterns=*/8,
              /*flip_steps=*/40);
}

TEST(EstimationPlanTest, RejectsMissingKinds) {
  const LeakageLibrary empty;
  const logic::LogicNetlist nl = logic::c17();
  EXPECT_THROW(EstimationPlan(nl, empty), Error);
}

TEST(EstimationPlanTest, ReferenceRejectsLevelsBelowOne) {
  const logic::LogicNetlist nl = logic::c17();
  const std::vector<bool> pattern(5, false);
  EXPECT_THROW(referenceEstimate(nl, sharedLibrary(), {}, pattern, 0), Error);
  EXPECT_THROW(referenceEstimate(nl, sharedLibrary(), {}, pattern, -1),
               Error);
}

TEST(EstimationPlanTest, RejectsMalformedTables) {
  const logic::LogicNetlist nl = raggedNetlist();
  const auto compiles = [&](const LeakageLibrary& library) {
    try {
      const EstimationPlan plan(nl, library);
      return true;
    } catch (const Error&) {
      return false;
    }
  };
  EXPECT_TRUE(compiles(raggedLibrary()));

  // A surface shaped unlike its axes.
  LeakageLibrary grid_shape = raggedLibrary();
  std::vector<VectorTable> nand = grid_shape.tables(gates::GateKind::kNand2);
  nand[1].gate = Grid2D(3, 4);
  grid_shape.insert(gates::GateKind::kNand2, nand);
  EXPECT_FALSE(compiles(grid_shape));

  // A pin current missing.
  LeakageLibrary pins = raggedLibrary();
  nand = pins.tables(gates::GateKind::kNand2);
  nand[3].pin_current.pop_back();
  pins.insert(gates::GateKind::kNand2, nand);
  EXPECT_FALSE(compiles(pins));

  // Values outside the model's domain: the error names the kind and the
  // vector, with or without loading for the cells the plan copies.
  const auto rejection = [&](const LeakageLibrary& library,
                             const EstimatorOptions& options) {
    try {
      const EstimationPlan plan(nl, library, options);
    } catch (const Error& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  const EstimatorOptions loading;
  EstimatorOptions no_loading;
  no_loading.with_loading = false;
  LeakageLibrary nan_cell = raggedLibrary();
  nand = nan_cell.tables(gates::GateKind::kNand2);
  nand[1].subthreshold.at(2, 3) = std::nan("");
  nan_cell.insert(gates::GateKind::kNand2, nand);
  EXPECT_EQ(rejection(nan_cell, loading),
            "EstimationPlan: NAND2 vector 1 holds a non-finite value");
  EXPECT_EQ(rejection(nan_cell, no_loading), "");

  LeakageLibrary inf_pin = raggedLibrary();
  std::vector<VectorTable> inv = inf_pin.tables(gates::GateKind::kInv);
  inv[0].pin_current[0] = std::numeric_limits<double>::infinity();
  inf_pin.insert(gates::GateKind::kInv, inv);
  EXPECT_EQ(rejection(inf_pin, loading),
            "EstimationPlan: INV vector 0 holds a non-finite value");

  LeakageLibrary big_cell = raggedLibrary();
  nand = big_cell.tables(gates::GateKind::kNand2);
  nand[3].btbt.at(1, 0) = 2.0;
  nand[2].isolated_nominal.gate = 2.0;
  big_cell.insert(gates::GateKind::kNand2, nand);
  EXPECT_EQ(rejection(big_cell, loading),
            "EstimationPlan: NAND2 vector 3 holds a leakage cell of 1 A or "
            "more");
  EXPECT_EQ(rejection(big_cell, no_loading),
            "EstimationPlan: NAND2 vector 2 holds a leakage cell of 1 A or "
            "more");
  // The reference evaluator rejects what the plan rejects.
  LeakageLibrary all_big = raggedLibrary();
  nand = all_big.tables(gates::GateKind::kNand2);
  for (VectorTable& table : nand) {
    table.isolated_nominal.gate = 2.0;
  }
  all_big.insert(gates::GateKind::kNand2, nand);
  const std::vector<bool> ones(
      EstimationPlan(nl, raggedLibrary()).sourceCount(), true);
  try {
    referenceEstimate(nl, all_big, no_loading, ones);
    FAIL() << "expected nanoleak::Error";
  } catch (const Error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("referenceEstimate: NAND2 vector ",
                                              0),
              0u)
        << error.what();
  }
}

TEST(EstimationPlanTest, RejectsWrongSourceCount) {
  const logic::LogicNetlist nl = logic::c17();  // 5 sources
  const EstimationPlan plan(nl, sharedLibrary());
  EXPECT_EQ(plan.sourceCount(), 5u);
  EstimationWorkspace ws(plan);
  try {
    plan.estimate(std::vector<bool>(3, false), ws);
    FAIL() << "expected nanoleak::Error";
  } catch (const Error& error) {
    // The message names the expected and the offending count.
    EXPECT_NE(std::string(error.what()).find("5"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("3"), std::string::npos);
  }
  EstimateResult out;
  EXPECT_THROW(plan.estimateDelta(std::vector<bool>(6, false), ws, out),
               Error);
}

TEST(EstimationPlanTest, RejectsForeignWorkspace) {
  const logic::LogicNetlist a = logic::c17();
  const logic::LogicNetlist b = logic::fanoutStar(3);
  const EstimationPlan plan_a(a, sharedLibrary());
  const EstimationPlan plan_b(b, sharedLibrary());
  EstimationWorkspace ws_b(plan_b);
  EXPECT_THROW(plan_a.estimate(std::vector<bool>(5, false), ws_b), Error);
}

TEST(EstimationPlanTest, NoLoadingModeSumsIsolatedNominals) {
  // Every gate of a no-loading plan reads exactly its isolated nominal at
  // IL = OL = +0 on the full, delta and block paths, and the total is
  // their order-free sum, here added in reverse gate order.
  const logic::LogicNetlist nl = s838Like();
  EstimatorOptions options;
  options.with_loading = false;
  const EstimationPlan plan(nl, sharedLibrary(), options);
  const logic::LogicSimulator simulator(nl);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto expectIsolated = [&](const std::vector<bool>& pattern,
                                  const EstimateResult& result,
                                  const std::string& context) {
    std::vector<bool> values;
    simulator.simulateInto(pattern, values);
    ASSERT_EQ(result.per_gate.size(), nl.gateCount()) << context;
    util::OrderFreeSum<3> sum;
    for (logic::GateId g = nl.gateCount(); g-- > 0;) {
      std::vector<bool> inputs;
      for (logic::NetId net : nl.gate(g).inputs) {
        inputs.push_back(values[net]);
      }
      const device::LeakageBreakdown& isolated =
          sharedLibrary()
              .table(nl.gate(g).kind, vectorIndex(inputs))
              .isolated_nominal;
      const GateEstimate& got = result.per_gate[g];
      const std::string where = context + " gate " + std::to_string(g);
      ASSERT_EQ(bits(got.leakage.subthreshold), bits(isolated.subthreshold))
          << where;
      ASSERT_EQ(bits(got.leakage.gate), bits(isolated.gate)) << where;
      ASSERT_EQ(bits(got.leakage.btbt), bits(isolated.btbt)) << where;
      ASSERT_EQ(bits(got.il), bits(0.0)) << where;
      ASSERT_EQ(bits(got.ol), bits(0.0)) << where;
      sum.add({isolated.subthreshold, isolated.gate, isolated.btbt});
    }
    EXPECT_EQ(bits(result.total.subthreshold), bits(sum.value(0)))
        << context;
    EXPECT_EQ(bits(result.total.gate), bits(sum.value(1))) << context;
    EXPECT_EQ(bits(result.total.btbt), bits(sum.value(2))) << context;
  };

  Rng rng(2005);
  EstimationWorkspace ws(plan);
  EstimateResult result;
  std::vector<bool> pattern = logic::randomPattern(plan.sourceCount(), rng);
  plan.estimate(pattern, ws, result);
  expectIsolated(pattern, result, "full");
  for (int step = 0; step < 16; ++step) {
    const std::size_t bit =
        static_cast<std::size_t>(rng.uniformInt(plan.sourceCount()));
    pattern[bit] = !pattern[bit];
    plan.estimateDelta(pattern, ws, result);
    expectIsolated(pattern, result, "delta step " + std::to_string(step));
  }
  std::vector<std::vector<bool>> block;
  for (std::size_t i = 0; i < kBlockPatterns; ++i) {
    block.push_back(logic::randomPattern(plan.sourceCount(), rng));
  }
  std::vector<EstimateResult> blocked(block.size());
  plan.estimateBlock(block, ws, blocked);
  for (std::size_t i = 0; i < block.size(); ++i) {
    expectIsolated(block[i], blocked[i], "block pattern " + std::to_string(i));
  }
}

TEST(EstimationPlanTest, NoLoadingWalkTakesTheLoadingPlansPaths) {
  // Whether a delta step runs incrementally or falls back to a full
  // evaluation depends only on its dirty-gate count, so a no-loading plan
  // walking the same patterns takes the same path at every step.
  const logic::LogicNetlist nl = s838Like();
  const EstimationPlan loading(nl, sharedLibrary());
  EstimatorOptions off;
  off.with_loading = false;
  const EstimationPlan no_loading(nl, sharedLibrary(), off);
  EstimationWorkspace loading_ws(loading);
  EstimationWorkspace no_loading_ws(no_loading);
  // The (incremental, fallback_full) counts one delta step adds.
  const auto pathOf = [](const EstimationPlan& plan,
                         const std::vector<bool>& pattern,
                         EstimationWorkspace& ws) {
    const std::uint64_t incremental =
        obs::counterValue("estimate.incremental");
    const std::uint64_t fallback = obs::counterValue("estimate.fallback_full");
    plan.estimateDeltaTotal(pattern, ws);
    return std::pair{obs::counterValue("estimate.incremental") - incremental,
                     obs::counterValue("estimate.fallback_full") - fallback};
  };

  Rng rng(838);
  std::vector<bool> pattern = logic::randomPattern(loading.sourceCount(), rng);
  loading.estimate(pattern, loading_ws);
  no_loading.estimate(pattern, no_loading_ws);
  std::uint64_t incremental = 0;
  std::uint64_t fallback = 0;
  for (int step = 0; step < 48; ++step) {
    if (step % 8 == 7) {
      // A many-bit jump, so the walk reaches the fallback too.
      for (std::size_t bit = 0; bit < pattern.size(); bit += 2) {
        pattern[bit] = !pattern[bit];
      }
    } else {
      const std::size_t bit =
          static_cast<std::size_t>(rng.uniformInt(pattern.size()));
      pattern[bit] = !pattern[bit];
    }
    const auto taken = pathOf(loading, pattern, loading_ws);
    EXPECT_EQ(pathOf(no_loading, pattern, no_loading_ws), taken)
        << "step " << step;
    incremental += taken.first;
    fallback += taken.second;
  }
  EXPECT_GT(incremental, 0u);
  EXPECT_GT(fallback, 0u);
}

TEST(EstimationPlanTest, LoadingRaisesChainLeakage) {
  const logic::LogicNetlist nl = logic::inverterChain(16);
  const EstimationPlan with(nl, sharedLibrary());
  EstimatorOptions off;
  off.with_loading = false;
  const EstimationPlan without(nl, sharedLibrary(), off);
  EstimationWorkspace with_ws(with);
  EstimationWorkspace without_ws(without);
  const double w = with.estimate({false}, with_ws).total.total();
  const double wo = without.estimate({false}, without_ws).total.total();
  // Paper Fig. 12b territory: a few percent increase.
  EXPECT_GT(w, 1.01 * wo);
  EXPECT_LT(w, 1.20 * wo);
}

TEST(EstimationPlanTest, PrimaryInputNetsCarryNoLoading) {
  // A single gate fed only by PIs sees zero input loading.
  const logic::LogicNetlist nl = logic::c17();
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace ws(plan);
  const EstimateResult r =
      plan.estimate({false, false, false, false, false}, ws);
  // c17: G10 (gate 0) reads G1, G3 - both primary inputs.
  EXPECT_DOUBLE_EQ(r.per_gate[0].il, 0.0);
  // Its output net G10 feeds G22, so OL > 0.
  EXPECT_GT(r.per_gate[0].ol, 0.0);
}

TEST(EstimationPlanTest, FanoutRaisesOutputLoading) {
  const logic::LogicNetlist star = logic::fanoutStar(6);
  const EstimationPlan plan(star, sharedLibrary());
  EstimationWorkspace ws(plan);
  const EstimateResult r = plan.estimate({false}, ws);
  // Gate 0 is the driver: its output feeds 6 inverter pins.
  const double ol_driver = r.per_gate[0].ol;
  EXPECT_GT(ol_driver, 1e-6);  // 6 pins x hundreds of nA
  // Each leaf sees the other 5 pins as input loading.
  EXPECT_GT(r.per_gate[1].il, 0.8 * ol_driver * 5.0 / 6.0);
  EXPECT_LT(r.per_gate[1].il, 1.2 * ol_driver * 5.0 / 6.0);
}

TEST(EstimationPlanTest, IterativePropagationConverges) {
  const logic::LogicNetlist nl = logic::arrayMultiplier(4);
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace ws(plan);
  const std::vector<bool> vec(8, true);
  const double l1 = plan.estimate(vec, ws).total.total();
  const double l3 =
      referenceEstimate(nl, sharedLibrary(), {}, vec, 3).total.total();
  // The paper: propagation beyond one level is negligible (< 1 % here).
  EXPECT_NEAR(l1, l3, 0.01 * l1);
  EXPECT_NE(l1, l3);  // but not bit-identical - it did something
}

TEST(EstimationPlanTest, DffBoundariesContributeLoading) {
  logic::LogicNetlist nl;
  const logic::NetId in = nl.addNet("in");
  nl.markPrimaryInput(in);
  const logic::NetId mid = nl.addNet("mid");
  const logic::NetId q = nl.addNet("q");
  const logic::NetId out = nl.addNet("out");
  nl.addGate(gates::GateKind::kInv, {in}, mid);
  nl.addDff(mid, q);
  nl.addGate(gates::GateKind::kInv, {q}, out);
  nl.markPrimaryOutput(out);
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace ws(plan);
  const EstimateResult r = plan.estimate({false, true}, ws);
  // Gate 0 drives net "mid" which feeds only the DFF D pin: OL > 0.
  EXPECT_GT(r.per_gate[0].ol, 0.0);
  // Gate 1 reads the DFF output net: it is gate-loadable (non-PI), but no
  // other pins sit on it, so IL == 0.
  EXPECT_DOUBLE_EQ(r.per_gate[1].il, 0.0);
}

TEST(EstimationPlanTest, PerGateEstimatesSumToTotal) {
  // The total is the order-free sum of the per-gate leakages: summing them
  // in a shuffled order gives it bit for bit.
  const logic::LogicNetlist nl = logic::alu8();
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace ws(plan);
  Rng rng(11);
  const EstimateResult r = plan.estimate(logic::randomPattern(19, rng), ws);
  std::vector<GateEstimate> shuffled = r.per_gate;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniformInt(i)]);
  }
  util::OrderFreeSum<3> sum;
  for (const GateEstimate& g : shuffled) {
    sum.add({g.leakage.subthreshold, g.leakage.gate, g.leakage.btbt});
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(sum.value(0)), bits(r.total.subthreshold));
  EXPECT_EQ(bits(sum.value(1)), bits(r.total.gate));
  EXPECT_EQ(bits(sum.value(2)), bits(r.total.btbt));
}

TEST(EstimationPlanTest, LongWalkKeepsTheTotalExact) {
  // 20,000 delta steps on an s1423-shaped synthetic mixing 1-bit flips,
  // repeats and half-the-bits jumps, so the workspace's running sum passes
  // through the incremental, unchanged and fallback paths many times; every
  // 250 steps it must equal a full estimate bit for bit.
  const logic::LogicNetlist nl =
      logic::synthesizeIscasLike(logic::iscasSpec("s1423"), 1423);
  const EstimationPlan plan(nl, sharedLibrary());
  EstimationWorkspace walk(plan);
  EstimationWorkspace full(plan);
  const std::uint64_t unchanged = obs::counterValue("estimate.unchanged");
  const std::uint64_t fallback = obs::counterValue("estimate.fallback_full");
  Rng rng(20000);
  std::vector<bool> pattern = logic::randomPattern(plan.sourceCount(), rng);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (int step = 1; step <= 20000; ++step) {
    const double move = rng.uniform();
    if (move < 0.05) {
      for (std::size_t bit = 0; bit < pattern.size(); ++bit) {
        if (rng.bernoulli(0.5)) {
          pattern[bit] = !pattern[bit];
        }
      }
    } else if (move < 0.15) {
      // A repeat: the pattern stays as it is.
    } else {
      const std::size_t bit =
          static_cast<std::size_t>(rng.uniformInt(pattern.size()));
      pattern[bit] = !pattern[bit];
    }
    const device::LeakageBreakdown total =
        plan.estimateDeltaTotal(pattern, walk);
    if (step % 250 == 0) {
      const device::LeakageBreakdown expected =
          plan.estimate(pattern, full).total;
      ASSERT_EQ(bits(total.subthreshold), bits(expected.subthreshold))
          << "step " << step;
      ASSERT_EQ(bits(total.gate), bits(expected.gate)) << "step " << step;
      ASSERT_EQ(bits(total.btbt), bits(expected.btbt)) << "step " << step;
    }
  }
  EXPECT_GT(obs::counterValue("estimate.unchanged"), unchanged);
  EXPECT_GT(obs::counterValue("estimate.fallback_full"), fallback);
}

}  // namespace
}  // namespace nanoleak::core
