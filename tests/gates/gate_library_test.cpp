#include "gates/gate_library.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace nanoleak::gates {
namespace {

std::vector<bool> bits(std::size_t value, int width) {
  std::vector<bool> out(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    out[static_cast<std::size_t>(i)] =
        ((value >> static_cast<std::size_t>(i)) & 1) != 0;
  }
  return out;
}

bool eval(GateKind kind, std::size_t value) {
  const int width = inputCount(kind);
  const std::vector<bool> in = bits(value, width);
  std::array<bool, 8> flat{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    flat[i] = in[i];
  }
  return evaluateGate(kind,
                      std::span<const bool>(flat.data(), in.size()));
}

TEST(GateLibraryTest, InverterTruth) {
  EXPECT_TRUE(eval(GateKind::kInv, 0));
  EXPECT_FALSE(eval(GateKind::kInv, 1));
  EXPECT_FALSE(eval(GateKind::kBuf, 0));
  EXPECT_TRUE(eval(GateKind::kBuf, 1));
}

TEST(GateLibraryTest, NandNorTruthTables) {
  for (int n = 2; n <= 4; ++n) {
    const GateKind nand = n == 2   ? GateKind::kNand2
                          : n == 3 ? GateKind::kNand3
                                   : GateKind::kNand4;
    const GateKind nor = n == 2   ? GateKind::kNor2
                         : n == 3 ? GateKind::kNor3
                                  : GateKind::kNor4;
    const auto all = std::size_t{1} << static_cast<std::size_t>(n);
    for (std::size_t v = 0; v < all; ++v) {
      EXPECT_EQ(eval(nand, v), v != all - 1) << "NAND" << n << " v=" << v;
      EXPECT_EQ(eval(nor, v), v == 0) << "NOR" << n << " v=" << v;
    }
  }
}

TEST(GateLibraryTest, AndOrTruthTables) {
  for (int n = 2; n <= 4; ++n) {
    const GateKind and_k = n == 2   ? GateKind::kAnd2
                           : n == 3 ? GateKind::kAnd3
                                    : GateKind::kAnd4;
    const GateKind or_k = n == 2   ? GateKind::kOr2
                          : n == 3 ? GateKind::kOr3
                                   : GateKind::kOr4;
    const auto all = std::size_t{1} << static_cast<std::size_t>(n);
    for (std::size_t v = 0; v < all; ++v) {
      EXPECT_EQ(eval(and_k, v), v == all - 1);
      EXPECT_EQ(eval(or_k, v), v != 0);
    }
  }
}

TEST(GateLibraryTest, XorXnorTruth) {
  EXPECT_FALSE(eval(GateKind::kXor2, 0b00));
  EXPECT_TRUE(eval(GateKind::kXor2, 0b01));
  EXPECT_TRUE(eval(GateKind::kXor2, 0b10));
  EXPECT_FALSE(eval(GateKind::kXor2, 0b11));
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_EQ(eval(GateKind::kXnor2, v), !eval(GateKind::kXor2, v));
  }
}

TEST(GateLibraryTest, Aoi21Oai21Truth) {
  // AOI21: out = !((a & b) | c); pins a=0, b=1, c=2.
  for (std::size_t v = 0; v < 8; ++v) {
    const bool a = (v & 1) != 0;
    const bool b = (v & 2) != 0;
    const bool c = (v & 4) != 0;
    EXPECT_EQ(eval(GateKind::kAoi21, v), !((a && b) || c)) << v;
    EXPECT_EQ(eval(GateKind::kOai21, v), !((a || b) && c)) << v;
  }
}

TEST(GateLibraryTest, Mux2Truth) {
  // pins: in0, in1, select.
  for (std::size_t v = 0; v < 8; ++v) {
    const bool a = (v & 1) != 0;
    const bool b = (v & 2) != 0;
    const bool s = (v & 4) != 0;
    EXPECT_EQ(eval(GateKind::kMux2, v), s ? b : a) << v;
  }
}

TEST(GateLibraryTest, DualSwapsSeriesParallel) {
  const SwitchExpr expr = SwitchExpr::series(
      {SwitchExpr::leaf(SignalRef::input(0)),
       SwitchExpr::parallel({SwitchExpr::leaf(SignalRef::input(1)),
                             SwitchExpr::leaf(SignalRef::input(2))})});
  const SwitchExpr dual = expr.dual();
  EXPECT_EQ(dual.kind, SwitchExpr::Kind::kParallel);
  ASSERT_EQ(dual.children.size(), 2u);
  EXPECT_EQ(dual.children[1].kind, SwitchExpr::Kind::kSeries);
  // Dual of dual is the original structure.
  const SwitchExpr twice = dual.dual();
  EXPECT_EQ(twice.kind, SwitchExpr::Kind::kSeries);
  EXPECT_EQ(twice.switchCount(), expr.switchCount());
}

TEST(GateLibraryTest, PullUpIsComplementOfPullDown) {
  // Static CMOS correctness: for every kind and vector, exactly one of the
  // (pull-down, dual pull-up) networks conducts.
  for (GateKind kind : combinationalKinds()) {
    const CellTopology& cell = cellTopology(kind);
    const int pins = inputCount(kind);
    const auto all = std::size_t{1} << static_cast<std::size_t>(pins);
    for (std::size_t v = 0; v < all; ++v) {
      std::array<bool, 8> in{};
      for (int k = 0; k < pins; ++k) {
        in[static_cast<std::size_t>(k)] =
            ((v >> static_cast<std::size_t>(k)) & 1) != 0;
      }
      std::array<bool, 32> internals{};
      for (std::size_t s = 0; s < cell.stages.size(); ++s) {
        const std::span<const bool> input_span(in.data(),
                                               static_cast<std::size_t>(pins));
        const std::span<const bool> internal_span(internals.data(), s);
        const bool pd = cell.stages[s].pull_down.conducts(input_span,
                                                          internal_span);
        // For the PMOS network, a switch conducts when its signal is LOW,
        // i.e. evaluate the dual on complemented signals.
        std::array<bool, 8> in_c{};
        for (int k = 0; k < pins; ++k) {
          in_c[static_cast<std::size_t>(k)] =
              !in[static_cast<std::size_t>(k)];
        }
        std::array<bool, 32> internals_c{};
        for (std::size_t j = 0; j < s; ++j) {
          internals_c[j] = !internals[j];
        }
        const bool pu = cell.stages[s].pull_down.dual().conducts(
            std::span<const bool>(in_c.data(), static_cast<std::size_t>(pins)),
            std::span<const bool>(internals_c.data(), s));
        EXPECT_NE(pd, pu) << toString(kind) << " stage " << s << " v=" << v;
        internals[s] = !pd;
      }
    }
  }
}

TEST(GateLibraryTest, TransistorCounts) {
  EXPECT_EQ(cellTopology(GateKind::kInv).transistorCount(), 2);
  EXPECT_EQ(cellTopology(GateKind::kBuf).transistorCount(), 4);
  EXPECT_EQ(cellTopology(GateKind::kNand2).transistorCount(), 4);
  EXPECT_EQ(cellTopology(GateKind::kNand4).transistorCount(), 8);
  EXPECT_EQ(cellTopology(GateKind::kAnd2).transistorCount(), 6);
  EXPECT_EQ(cellTopology(GateKind::kXor2).transistorCount(), 12);
  EXPECT_EQ(cellTopology(GateKind::kAoi21).transistorCount(), 6);
  EXPECT_EQ(cellTopology(GateKind::kMux2).transistorCount(), 12);
}

TEST(GateLibraryTest, DffHasNoTopology) {
  EXPECT_FALSE(hasTopology(GateKind::kDff));
  EXPECT_THROW(cellTopology(GateKind::kDff), Error);
  EXPECT_EQ(inputCount(GateKind::kDff), 1);
}

TEST(TruthTableTest, MatchesSwitchNetworksOnEveryVector) {
  // The per-kind truth table must agree with the switch networks it was
  // derived from, and evaluateGate() with both, on every input vector of
  // every combinational kind.
  ASSERT_EQ(combinationalKinds().size(), 19u);
  for (GateKind kind : combinationalKinds()) {
    const std::uint32_t table = truthTable(kind);
    const auto pins = static_cast<std::size_t>(inputCount(kind));
    const std::size_t vectors = std::size_t{1} << pins;
    for (std::size_t v = 0; v < vectors; ++v) {
      std::array<bool, 8> in{};
      for (std::size_t k = 0; k < pins; ++k) {
        in[k] = ((v >> k) & 1u) != 0;
      }
      const std::span<const bool> inputs(in.data(), pins);
      const bool expected = evaluateStages(kind, inputs).back();
      EXPECT_EQ(((table >> v) & 1u) != 0, expected)
          << toString(kind) << " v=" << v;
      EXPECT_EQ(evaluateGate(kind, inputs), expected)
          << toString(kind) << " v=" << v;
    }
    // No bits beyond the kind's input vectors.
    EXPECT_EQ(table >> vectors, 0u) << toString(kind);
  }
}

TEST(TruthTableTest, RejectsSequentialKinds) {
  EXPECT_THROW(truthTable(GateKind::kDff), Error);
  const std::array<bool, 1> one{true};
  EXPECT_THROW(evaluateGate(GateKind::kDff,
                            std::span<const bool>(one.data(), 1)),
               Error);
}

TEST(GateLibraryTest, ArityMismatchThrows) {
  const std::array<bool, 1> one{true};
  EXPECT_THROW(evaluateGate(GateKind::kNand2,
                            std::span<const bool>(one.data(), 1)),
               Error);
}

}  // namespace
}  // namespace nanoleak::gates
