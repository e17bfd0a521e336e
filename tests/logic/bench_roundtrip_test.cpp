// Round-trip property of the .bench reader/writer: parse -> serialize ->
// reparse yields a structurally identical netlist that simulates
// identically, including DFF boundaries and wide-gate tree expansion.
// The seeded fuzz below extends the property to randomized netlists and
// adds leakage equivalence through the estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "logic/bench_io.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "util/rng.h"

namespace nanoleak::logic {
namespace {

void expectSameStats(const LogicNetlist& a, const LogicNetlist& b) {
  const NetlistStats sa = computeStats(a);
  const NetlistStats sb = computeStats(b);
  EXPECT_EQ(sa.gates, sb.gates);
  EXPECT_EQ(sa.dffs, sb.dffs);
  EXPECT_EQ(sa.primary_inputs, sb.primary_inputs);
  EXPECT_EQ(sa.primary_outputs, sb.primary_outputs);
  EXPECT_EQ(sa.nets, sb.nets);
  EXPECT_EQ(sa.max_fanout, sb.max_fanout);
  EXPECT_DOUBLE_EQ(sa.mean_fanout, sb.mean_fanout);
  EXPECT_EQ(sa.logic_depth, sb.logic_depth);
}

void expectSameSimulation(const LogicNetlist& a, const LogicNetlist& b,
                          int patterns) {
  const LogicSimulator sim_a(a);
  const LogicSimulator sim_b(b);
  ASSERT_EQ(sim_a.sourceCount(), sim_b.sourceCount());
  Rng rng(20050307);
  for (int p = 0; p < patterns; ++p) {
    const std::vector<bool> pattern = randomPattern(sim_a.sourceCount(), rng);
    const std::vector<bool> va = sim_a.simulate(pattern);
    const std::vector<bool> vb = sim_b.simulate(pattern);
    // Compare observable nets by NAME (net ids may differ between parses).
    for (NetId net : a.primaryOutputs()) {
      const std::string& name = a.netName(net);
      EXPECT_EQ(va[net], vb[b.net(name)]) << "output " << name;
    }
    for (const Dff& dff : a.dffs()) {
      const std::string& name = a.netName(dff.d);
      EXPECT_EQ(va[dff.d], vb[b.net(name)]) << "dff d-pin " << name;
    }
  }
}

void expectRoundTrip(const LogicNetlist& original, int patterns = 16) {
  const std::string text = toBenchText(original);
  const LogicNetlist reparsed = parseBenchString(text);
  expectSameStats(original, reparsed);
  expectSameSimulation(original, reparsed, patterns);
  // Serialization is a fixed point: writing the reparsed netlist
  // reproduces the text byte for byte.
  EXPECT_EQ(toBenchText(reparsed), text);
}

// --- Seeded random-netlist fuzz --------------------------------------------

/// Emits random .bench text over the full bench-spelled primitive set:
/// narrow cells, wide gates (5-8 inputs, exercising tree decomposition),
/// DFFs (including DFF-to-DFF chains), and shared fanout. Every referenced
/// signal is driven, so the parse always validates.
std::string randomBenchText(Rng& rng) {
  const int n_pi = 3 + static_cast<int>(rng.uniformInt(6));     // 3..8
  const int n_dff = static_cast<int>(rng.uniformInt(4));        // 0..3
  const int n_gates = 6 + static_cast<int>(rng.uniformInt(20));  // 6..25

  std::string text;
  std::vector<std::string> driven;
  for (int i = 0; i < n_pi; ++i) {
    const std::string name = "pi" + std::to_string(i);
    text += "INPUT(" + name + ")\n";
    driven.push_back(name);
  }
  // DFF outputs are usable immediately; the DFF statements themselves are
  // emitted last to exercise forward references in the parser.
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
    } else if (rng.bernoulli(0.2) && op != "XNOR") {
      arity = 5 + rng.uniformInt(4);  // wide: 5..8, decomposed into trees
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
            driven[rng.uniformInt(driven.size())] + ")\n";
  }
  const int n_po = 1 + static_cast<int>(rng.uniformInt(3));
  for (int i = 0; i < n_po; ++i) {
    text += "OUTPUT(" + gate_outputs[rng.uniformInt(gate_outputs.size())] +
            ")\n";
  }
  return text;
}

/// Library covering every kind randomBenchText can produce (the tree
/// decomposition only emits AND/OR/INV/BUF/XOR2 beyond the narrow forms).
/// A coarse loading grid keeps characterization cheap; round-trip
/// equivalence only needs both netlists to read the same tables.
const core::LeakageLibrary& fuzzLibrary() {
  static const core::LeakageLibrary library = [] {
    using gates::GateKind;
    core::CharacterizationOptions options;
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

/// Leakage equivalence: the reparsed netlist estimates the same totals.
/// toBenchText emits gates in insertion order and the reparse re-adds
/// them in that order, so sums accumulate identically and the totals
/// must match to the last bit.
void expectSameLeakage(const LogicNetlist& a, const LogicNetlist& b,
                       int patterns, Rng& rng) {
  const core::EstimationPlan plan_a(a, fuzzLibrary());
  const core::EstimationPlan plan_b(b, fuzzLibrary());
  ASSERT_EQ(plan_a.sourceCount(), plan_b.sourceCount());
  core::EstimationWorkspace ws_a(plan_a);
  core::EstimationWorkspace ws_b(plan_b);
  for (int p = 0; p < patterns; ++p) {
    const std::vector<bool> pattern =
        randomPattern(plan_a.sourceCount(), rng);
    const auto ra = plan_a.estimate(pattern, ws_a).total;
    const auto rb = plan_b.estimate(pattern, ws_b).total;
    EXPECT_EQ(ra.subthreshold, rb.subthreshold) << "pattern " << p;
    EXPECT_EQ(ra.gate, rb.gate) << "pattern " << p;
    EXPECT_EQ(ra.btbt, rb.btbt) << "pattern " << p;
  }
}

TEST(BenchRoundTripTest, SeededRandomNetlistsRoundTripWithLeakage) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9e3779b9ULL);
    const std::string text = randomBenchText(rng);
    const LogicNetlist original = parseBenchString(text);
    // Round trip: structure, simulation, and serialization fixed point.
    expectRoundTrip(original, 8);
    // Leakage equivalence through the estimator.
    const LogicNetlist reparsed = parseBenchString(toBenchText(original));
    expectSameLeakage(original, reparsed, 4, rng);
  }
}

TEST(BenchRoundTripTest, SeededRandomNetlistsAlwaysContainWideAndDffCases) {
  // Guard the fuzz generator itself: across the seed range it must
  // exercise tree decomposition (gates only up to 4-ary after parsing,
  // some circuits with many expansion cells) and DFF boundaries.
  bool saw_expansion = false;
  bool saw_dff = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 0x9e3779b9ULL);
    const std::string text = randomBenchText(rng);
    const LogicNetlist netlist = parseBenchString(text);
    for (const Gate& gate : netlist.gates()) {
      EXPECT_LE(gate.inputs.size(), 4u);
      // Expansion cells drive generated "<root>$xN" nets.
      if (netlist.netName(gate.output).find("$x") != std::string::npos) {
        saw_expansion = true;
      }
    }
    saw_dff = saw_dff || !netlist.dffs().empty();
  }
  EXPECT_TRUE(saw_expansion);
  EXPECT_TRUE(saw_dff);
}

TEST(BenchRoundTripTest, C17) { expectRoundTrip(c17()); }

TEST(BenchRoundTripTest, RippleCarryAdder) {
  expectRoundTrip(rippleCarryAdder(4));
}

TEST(BenchRoundTripTest, SequentialCircuitWithDffs) {
  const char* text = R"(# s27-like toy
INPUT(G0)
INPUT(G1)
INPUT(G2)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G10 = NAND(G0, G6)
G11 = NOR(G5, G2)
G16 = XOR(G1, G11)
G17 = NAND(G10, G16)
)";
  const LogicNetlist netlist = parseBenchString(text);
  ASSERT_EQ(netlist.dffs().size(), 2u);
  expectRoundTrip(netlist);
}

TEST(BenchRoundTripTest, WideGatesExpandAndStayStable) {
  const char* wide = R"(INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
INPUT(g)
OUTPUT(y)
OUTPUT(z)
OUTPUT(w)
y = NAND(a, b, c, d, e, f, g)
z = OR(a, b, c, d, e, f, g)
w = XOR(a, b, c, d, e)
)";
  const LogicNetlist netlist = parseBenchString(wide);
  // 7-wide NAND becomes an AND tree plus a root inverter; every emitted
  // cell is at most 4-ary.
  for (const Gate& gate : netlist.gates()) {
    EXPECT_LE(gate.inputs.size(), 4u);
  }
  EXPECT_GT(netlist.gateCount(), 3u);
  expectRoundTrip(netlist, 32);
}

TEST(BenchRoundTripTest, DffHeavyShiftRegisterCircuit) {
  // A 16-stage LFSR-style register chain exercises DFF ordering in the
  // writer (DFFs are emitted before gates) and name-based reassociation.
  std::string text = "INPUT(load)\nOUTPUT(parity)\nOUTPUT(any)\n";
  text += "fb = XOR(q15, q13)\n";
  text += "d0 = OR(fb, load)\n";
  for (int i = 0; i < 16; ++i) {
    text += "q" + std::to_string(i) + " = DFF(d" + std::to_string(i) + ")\n";
    if (i > 0) {
      text += "d" + std::to_string(i) + " = BUFF(q" + std::to_string(i - 1) +
              ")\n";
    }
  }
  text += "parity = XOR(q0, q8)\n";
  text += "any = OR(q0, q1, q2, q3, q4, q5, q6, q7, q8)\n";  // wide OR
  const LogicNetlist netlist = parseBenchString(text);
  ASSERT_EQ(netlist.dffs().size(), 16u);
  expectRoundTrip(netlist, 8);
}

}  // namespace
}  // namespace nanoleak::logic
