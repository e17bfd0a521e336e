#include "logic/logic_sim.h"

#include <gtest/gtest.h>

#include "logic/generators.h"
#include "util/error.h"

namespace nanoleak::logic {
namespace {

using gates::GateKind;

TEST(LogicSimTest, InverterChainAlternates) {
  const LogicNetlist nl = inverterChain(4);
  const LogicSimulator sim(nl);
  ASSERT_EQ(sim.sourceCount(), 1u);
  const auto values = sim.simulate({true});
  // in=1 -> n0=0 -> n1=1 -> n2=0 -> n3=1.
  EXPECT_TRUE(values[nl.net("in")]);
  EXPECT_FALSE(values[nl.net("n0")]);
  EXPECT_TRUE(values[nl.net("n1")]);
  EXPECT_FALSE(values[nl.net("n2")]);
  EXPECT_TRUE(values[nl.net("n3")]);
}

TEST(LogicSimTest, C17KnownVectors) {
  const LogicNetlist nl = c17();
  const LogicSimulator sim(nl);
  // c17 inputs ordered G1,G2,G3,G6,G7.
  // All-zero inputs: G11 = NAND(G3,G6) = 1; G16 = NAND(G2,G11) = 1;
  // G19 = NAND(G11,G7) = 1; G10 = NAND(G1,G3) = 1; G22 = NAND(G10,G16)=0;
  // G23 = NAND(G16,G19) = 0.
  const auto v0 = sim.simulate({false, false, false, false, false});
  EXPECT_FALSE(v0[nl.net("G22")]);
  EXPECT_FALSE(v0[nl.net("G23")]);
  // G1=G3=1, others 0: G10 = 0 -> G22 = 1.
  const auto v1 = sim.simulate({true, false, true, false, false});
  EXPECT_TRUE(v1[nl.net("G22")]);
}

TEST(LogicSimTest, SourceCountMismatchThrows) {
  const LogicNetlist nl = inverterChain(2);
  const LogicSimulator sim(nl);
  EXPECT_THROW(sim.simulate({true, false}), Error);
  // The message names the expected and the offending count.
  try {
    std::vector<bool> values = sim.simulate({true});
    std::vector<GateId> dirty;
    std::vector<NetId> changed;
    DeltaSimScratch scratch;
    sim.simulateDelta({true, false, true}, values, dirty, changed, scratch);
    FAIL() << "expected nanoleak::Error";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(),
                 "LogicSimulator: expected 1 source values, got 3");
  }
}

TEST(LogicSimTest, DffOutputsAreSources) {
  LogicNetlist nl;
  const NetId in = nl.addNet("in");
  nl.markPrimaryInput(in);
  const NetId d = nl.addNet("d");
  const NetId q = nl.addNet("q");
  const NetId out = nl.addNet("out");
  nl.addGate(GateKind::kInv, {in}, d);
  nl.addDff(d, q);
  nl.addGate(GateKind::kNand2, {in, q}, out);
  const LogicSimulator sim(nl);
  ASSERT_EQ(sim.sourceCount(), 2u);
  // q forced to 1 regardless of d.
  const auto values = sim.simulate({true, true});
  EXPECT_FALSE(values[out]);  // NAND(1,1)
  const auto values2 = sim.simulate({true, false});
  EXPECT_TRUE(values2[out]);  // NAND(1,0)
}

TEST(LogicSimTest, AdderMatchesIntegerAddition) {
  const LogicNetlist nl = rippleCarryAdder(4);
  const LogicSimulator sim(nl);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; b += 3) {
      for (unsigned cin = 0; cin <= 1; ++cin) {
        // Source order: a0,b0,a1,b1,...,cin (insertion order).
        std::vector<bool> in;
        for (int i = 0; i < 4; ++i) {
          in.push_back(((a >> i) & 1) != 0);
          in.push_back(((b >> i) & 1) != 0);
        }
        in.push_back(cin != 0);
        const auto values = sim.simulate(in);
        unsigned sum = 0;
        for (int i = 0; i < 4; ++i) {
          if (values[nl.primaryOutputs()[static_cast<std::size_t>(i)]]) {
            sum |= 1u << i;
          }
        }
        if (values[nl.primaryOutputs()[4]]) {
          sum |= 1u << 4;
        }
        EXPECT_EQ(sum, a + b + cin) << a << "+" << b << "+" << cin;
      }
    }
  }
}

TEST(LogicSimTest, MultiplierMatchesIntegerProduct) {
  const LogicNetlist nl = arrayMultiplier(4);
  const LogicSimulator sim(nl);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; ++b) {
      std::vector<bool> in;
      for (int i = 0; i < 4; ++i) {
        in.push_back(((a >> i) & 1) != 0);
        in.push_back(((b >> i) & 1) != 0);
      }
      const auto values = sim.simulate(in);
      unsigned product = 0;
      for (int i = 0; i < 8; ++i) {
        if (values[nl.primaryOutputs()[static_cast<std::size_t>(i)]]) {
          product |= 1u << i;
        }
      }
      EXPECT_EQ(product, a * b) << a << "*" << b;
    }
  }
}

TEST(LogicSimTest, AluOpsMatchReference) {
  const LogicNetlist nl = alu8();
  const LogicSimulator sim(nl);
  // Source order: a0,b0,...,a7,b7,op0,op1,op2.
  auto run = [&](unsigned a, unsigned b, unsigned op) {
    std::vector<bool> in;
    for (int i = 0; i < 8; ++i) {
      in.push_back(((a >> i) & 1) != 0);
      in.push_back(((b >> i) & 1) != 0);
    }
    for (int i = 0; i < 3; ++i) {
      in.push_back(((op >> i) & 1) != 0);
    }
    const auto values = sim.simulate(in);
    unsigned y = 0;
    for (int i = 0; i < 8; ++i) {
      if (values[nl.primaryOutputs()[static_cast<std::size_t>(i)]]) {
        y |= 1u << i;
      }
    }
    return y;
  };
  const unsigned a = 0xA5;
  const unsigned b = 0x3C;
  EXPECT_EQ(run(a, b, 0), (a + b) & 0xFF);        // ADD
  EXPECT_EQ(run(a, b, 1), (a - b) & 0xFF);        // SUB
  EXPECT_EQ(run(a, b, 2), a & b);                 // AND
  EXPECT_EQ(run(a, b, 3), a | b);                 // OR
  EXPECT_EQ(run(a, b, 4), a ^ b);                 // XOR
  EXPECT_EQ(run(a, b, 5), (~(a | b)) & 0xFF);     // NOR
  EXPECT_EQ(run(a, b, 6), (~a) & 0xFF);           // NOT A
  EXPECT_EQ(run(a, b, 7), a);                     // PASS A
}

TEST(LogicSimTest, RandomPatternIsDeterministicPerSeed) {
  Rng a(5);
  Rng b(5);
  EXPECT_EQ(randomPattern(64, a), randomPattern(64, b));
}

TEST(LogicSimTest, SimulateIntoMatchesSimulate) {
  const LogicNetlist nl = arrayMultiplier(4);
  const LogicSimulator sim(nl);
  Rng rng(3);
  std::vector<bool> reused;
  for (int i = 0; i < 4; ++i) {
    const auto pattern = randomPattern(sim.sourceCount(), rng);
    sim.simulateInto(pattern, reused);
    EXPECT_EQ(reused, sim.simulate(pattern));
  }
}

TEST(LogicSimTest, SimulateWordsMatchesSimulatePerBit) {
  // A synthetic with DFF sources; a full 64-pattern word and a partial
  // one.
  const LogicNetlist nl = synthesizeIscasLike(iscasSpec("s838"), 20050307);
  const LogicSimulator sim(nl);
  Rng rng(9);
  std::vector<std::uint64_t> words;
  for (std::size_t count : {std::size_t{64}, std::size_t{5}}) {
    std::vector<std::vector<bool>> patterns;
    for (std::size_t p = 0; p < count; ++p) {
      patterns.push_back(randomPattern(sim.sourceCount(), rng));
    }
    sim.simulateWords(patterns, words);
    ASSERT_EQ(words.size(), nl.netCount());
    for (std::size_t p = 0; p < count; ++p) {
      const std::vector<bool> values = sim.simulate(patterns[p]);
      for (NetId net = 0; net < nl.netCount(); ++net) {
        ASSERT_EQ(((words[net] >> p) & 1) != 0, values[net])
            << "pattern " << p << " net " << net;
      }
    }
  }
  EXPECT_THROW(sim.simulateWords(std::vector<std::vector<bool>>(
                                     65, std::vector<bool>(sim.sourceCount())),
                                 words),
               Error);
}

TEST(LogicSimTest, SimulateDeltaTracksFullResimulation) {
  const LogicNetlist nl = alu8();
  const LogicSimulator sim(nl);
  Rng rng(17);
  std::vector<bool> pattern = randomPattern(sim.sourceCount(), rng);
  std::vector<bool> values = sim.simulate(pattern);

  DeltaSimScratch scratch;
  std::vector<GateId> dirty;
  std::vector<NetId> changed;
  for (int step = 0; step < 32; ++step) {
    // Flip one bit, and occasionally a second (multi-source events).
    const std::size_t bit = rng.uniformInt(pattern.size());
    pattern[bit] = !pattern[bit];
    if (rng.bernoulli(0.25)) {
      const std::size_t extra = rng.uniformInt(pattern.size());
      pattern[extra] = !pattern[extra];
    }
    sim.simulateDelta(pattern, values, dirty, changed, scratch);
    EXPECT_EQ(values, sim.simulate(pattern)) << "step " << step;

    // Dirty gates come back in topological order, without duplicates.
    for (std::size_t i = 1; i < dirty.size(); ++i) {
      EXPECT_LT(sim.topoPosition(dirty[i - 1]), sim.topoPosition(dirty[i]));
    }
  }
}

TEST(LogicSimTest, SimulateDeltaReportsExactDirtySet) {
  // in -> INV(g0) -> n0 -> INV(g1) -> n1 -> INV(g2) -> n2: flipping the
  // input dirties the whole chain; an identical pattern dirties nothing.
  const LogicNetlist nl = inverterChain(3);
  const LogicSimulator sim(nl);
  std::vector<bool> values = sim.simulate({false});

  DeltaSimScratch scratch;
  std::vector<GateId> dirty;
  std::vector<NetId> changed;
  sim.simulateDelta({false}, values, dirty, changed, scratch);
  EXPECT_TRUE(dirty.empty());
  EXPECT_TRUE(changed.empty());

  sim.simulateDelta({true}, values, dirty, changed, scratch);
  EXPECT_EQ(dirty.size(), 3u);
  EXPECT_EQ(changed.size(), 4u);  // in, n0, n1, n2
  EXPECT_EQ(values, sim.simulate({true}));
}

TEST(LogicSimTest, SimulateDeltaStopsWhereValuesReconverge) {
  // NAND(a, b) with b = 0 masks a: flipping a re-evaluates only the NAND,
  // whose output does not change, so nothing downstream is touched.
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  const NetId b = nl.addNet("b");
  nl.markPrimaryInput(a);
  nl.markPrimaryInput(b);
  const NetId n = nl.addNet("n");
  const NetId out = nl.addNet("out");
  nl.addGate(GateKind::kNand2, {a, b}, n);
  nl.addGate(GateKind::kInv, {n}, out);
  nl.markPrimaryOutput(out);
  const LogicSimulator sim(nl);

  std::vector<bool> values = sim.simulate({false, false});
  DeltaSimScratch scratch;
  std::vector<GateId> dirty;
  std::vector<NetId> changed;
  sim.simulateDelta({true, false}, values, dirty, changed, scratch);
  EXPECT_EQ(dirty.size(), 1u);    // just the NAND
  EXPECT_EQ(changed.size(), 1u);  // just net a
  EXPECT_EQ(values, sim.simulate({true, false}));
}

}  // namespace
}  // namespace nanoleak::logic
