#include "logic/bench_io.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../mutation_fuzz.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "util/error.h"

namespace nanoleak::logic {
namespace {

const char* kTiny = R"(
# a tiny sequential circuit
INPUT(G0)
INPUT(G1)
OUTPUT(G5)
G3 = NAND(G0, G1)
G4 = DFF(G3)
G5 = NOT(G4)
)";

TEST(BenchIoTest, ParsesTinyCircuit) {
  const LogicNetlist nl = parseBenchString(kTiny);
  EXPECT_EQ(nl.primaryInputs().size(), 2u);
  EXPECT_EQ(nl.primaryOutputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_EQ(nl.gateCount(), 2u);
  EXPECT_EQ(nl.gate(nl.driverGate(nl.net("G3"))).kind,
            gates::GateKind::kNand2);
}

TEST(BenchIoTest, ParsesC17Text) {
  const char* c17_text = R"(
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";
  const LogicNetlist parsed = parseBenchString(c17_text);
  EXPECT_EQ(parsed.gateCount(), 6u);
  // Behaviour matches the generator's c17 on all 32 vectors.
  const LogicNetlist built = c17();
  const LogicSimulator sim_p(parsed);
  const LogicSimulator sim_b(built);
  for (unsigned v = 0; v < 32; ++v) {
    std::vector<bool> in;
    for (int i = 0; i < 5; ++i) {
      in.push_back(((v >> i) & 1) != 0);
    }
    const auto vp = sim_p.simulate(in);
    const auto vb = sim_b.simulate(in);
    EXPECT_EQ(vp[parsed.net("G22")], vb[built.net("G22")]) << v;
    EXPECT_EQ(vp[parsed.net("G23")], vb[built.net("G23")]) << v;
  }
}

TEST(BenchIoTest, DecomposesWideGates) {
  const char* text = R"(
INPUT(i0)
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i4)
INPUT(i5)
OUTPUT(o)
o = NAND(i0, i1, i2, i3, i4, i5)
)";
  const LogicNetlist nl = parseBenchString(text);
  EXPECT_GT(nl.gateCount(), 1u);  // tree expansion
  const LogicSimulator sim(nl);
  for (unsigned v = 0; v < 64; ++v) {
    std::vector<bool> in;
    for (int i = 0; i < 6; ++i) {
      in.push_back(((v >> i) & 1) != 0);
    }
    EXPECT_EQ(sim.simulate(in)[nl.net("o")], v != 63) << v;
  }
}

TEST(BenchIoTest, DecomposesWideXor) {
  const char* text = R"(
INPUT(i0)
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i4)
OUTPUT(o)
o = XOR(i0, i1, i2, i3, i4)
)";
  const LogicNetlist nl = parseBenchString(text);
  const LogicSimulator sim(nl);
  for (unsigned v = 0; v < 32; ++v) {
    std::vector<bool> in;
    int ones = 0;
    for (int i = 0; i < 5; ++i) {
      const bool bit = ((v >> i) & 1) != 0;
      in.push_back(bit);
      ones += bit ? 1 : 0;
    }
    EXPECT_EQ(sim.simulate(in)[nl.net("o")], ones % 2 == 1) << v;
  }
}

/// Asserts the input throws ParseError pointing at 1-based `line`.
void expectParseErrorAtLine(const std::string& text, int line) {
  try {
    parseBenchString(text);
    FAIL() << "expected ParseError for: " << text;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what() << " for: " << text;
  }
}

TEST(BenchIoTest, MalformedInputsThrowWithLineNumbers) {
  // Each malformed statement is reported on its own 1-based line, also
  // when preceded by blank lines and comments (which count).
  expectParseErrorAtLine("INPUT G0", 1);
  expectParseErrorAtLine("INPUT(G0)\nG1 = NAND(G0", 2);
  expectParseErrorAtLine("INPUT(G0)\n\n# comment\nG1 NAND(G0)", 4);
  expectParseErrorAtLine("INPUT(G0)\nG1 = WIBBLE(G0)", 2);
  expectParseErrorAtLine("INPUT(a)\nG1 = DFF(a, a)", 2);
  expectParseErrorAtLine("INPUT(a)\nbad line here\n", 2);
  expectParseErrorAtLine("OUTPUT G9", 1);
  expectParseErrorAtLine("INPUT(a)\nG1 = NAND()", 2);           // no inputs
  expectParseErrorAtLine("INPUT(a)\nINPUT(b)\nG1 = NOT(a, b)", 3);  // arity
}

TEST(BenchIoTest, MutatedInputsParseOrThrowError) {
  // Seeded mutation fuzz (tests/mutation_fuzz.h): mutants of a sequential
  // circuit and of c17's emitted text either parse or throw
  // nanoleak::Error, never anything else.
  const std::vector<std::string> inputs = {kTiny, toBenchText(c17())};
  fuzz::expectParsesOrThrowsError(
      inputs, "()=,# \t\nGNADOTRXUFIPBQ0123456789", 20050307, 2000,
      [](const std::string& text) { (void)parseBenchString(text); });
}

TEST(BenchIoTest, ToBenchTextRejectsKindsWithoutBenchSpelling) {
  // AOI21/OAI21/MUX2 exist in the cell library but have no .bench
  // primitive; the writer must refuse them with a message naming the kind.
  struct Case {
    gates::GateKind kind;
    const char* name;
  };
  for (const Case& test_case :
       {Case{gates::GateKind::kAoi21, "AOI21"},
        Case{gates::GateKind::kOai21, "OAI21"},
        Case{gates::GateKind::kMux2, "MUX2"}}) {
    LogicNetlist netlist;
    const NetId a = netlist.addNet("a");
    const NetId b = netlist.addNet("b");
    const NetId c = netlist.addNet("c");
    const NetId y = netlist.addNet("y");
    netlist.markPrimaryInput(a);
    netlist.markPrimaryInput(b);
    netlist.markPrimaryInput(c);
    netlist.markPrimaryOutput(y);
    netlist.addGate(test_case.kind, {a, b, c}, y);
    try {
      toBenchText(netlist);
      FAIL() << "expected Error for " << test_case.name;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(test_case.name),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BenchIoTest, RoundTripPreservesBehaviour) {
  const LogicNetlist original = parseBenchString(kTiny);
  const std::string text = toBenchText(original);
  const LogicNetlist reparsed = parseBenchString(text);
  EXPECT_EQ(reparsed.gateCount(), original.gateCount());
  EXPECT_EQ(reparsed.dffs().size(), original.dffs().size());
  const LogicSimulator sim_a(original);
  const LogicSimulator sim_b(reparsed);
  for (unsigned v = 0; v < 8; ++v) {
    std::vector<bool> in;
    for (int i = 0; i < 3; ++i) {  // 2 PIs + 1 DFF
      in.push_back(((v >> i) & 1) != 0);
    }
    EXPECT_EQ(sim_a.simulate(in)[original.net("G5")],
              sim_b.simulate(in)[reparsed.net("G5")]);
  }
}

TEST(BenchIoTest, MissingFileThrows) {
  EXPECT_THROW(parseBenchFile("/nonexistent/path.bench"), Error);
}

}  // namespace
}  // namespace nanoleak::logic
