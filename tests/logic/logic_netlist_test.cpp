#include "logic/logic_netlist.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace nanoleak::logic {
namespace {

using gates::GateKind;

/// The message of the nanoleak::Error `fn` throws, or "" when it throws
/// none.
template <typename Fn>
std::string errorMessage(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(LogicNetlistTest, NetsAreNamedAndUnique) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  EXPECT_EQ(nl.netName(a), "a");
  EXPECT_THROW(nl.addNet("a"), Error);
  EXPECT_EQ(nl.getOrAddNet("a"), a);
  EXPECT_TRUE(nl.hasNet("a"));
  EXPECT_FALSE(nl.hasNet("b"));
  EXPECT_THROW(nl.net("b"), Error);
}

TEST(LogicNetlistTest, DriversAreExclusive) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  const NetId out = nl.addNet("out");
  nl.markPrimaryInput(a);
  EXPECT_THROW(nl.markPrimaryInput(a), Error);  // already driven
  nl.addGate(GateKind::kInv, {a}, out);
  EXPECT_THROW(nl.addGate(GateKind::kInv, {a}, out), Error);
  EXPECT_EQ(nl.driverKind(a), DriverKind::kPrimaryInput);
  EXPECT_EQ(nl.driverKind(out), DriverKind::kGate);
  EXPECT_EQ(nl.driverGate(out), 0u);
  EXPECT_THROW(nl.driverGate(a), Error);
}

TEST(LogicNetlistTest, FanoutTracksPins) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  const NetId x = nl.addNet("x");
  const NetId y = nl.addNet("y");
  nl.markPrimaryInput(a);
  nl.addGate(GateKind::kInv, {a}, x);
  nl.addGate(GateKind::kNand2, {a, x}, y);
  const auto& fan_a = nl.fanout(a);
  ASSERT_EQ(fan_a.size(), 2u);
  EXPECT_EQ(fan_a[0].gate, 0u);
  EXPECT_EQ(fan_a[0].pin, 0);
  EXPECT_EQ(fan_a[1].gate, 1u);
  EXPECT_EQ(fan_a[1].pin, 0);
  EXPECT_EQ(nl.fanout(x).size(), 1u);
  EXPECT_EQ(nl.fanout(x)[0].pin, 1);
}

TEST(LogicNetlistTest, DffActsAsBoundary) {
  LogicNetlist nl;
  const NetId in = nl.addNet("in");
  const NetId d = nl.addNet("d");
  const NetId q = nl.addNet("q");
  const NetId out = nl.addNet("out");
  nl.markPrimaryInput(in);
  nl.addGate(GateKind::kInv, {in}, d);
  nl.addDff(d, q, "ff0");
  nl.addGate(GateKind::kInv, {q}, out);
  nl.markPrimaryOutput(out);
  nl.validate();
  EXPECT_EQ(nl.driverKind(q), DriverKind::kDffOutput);
  EXPECT_EQ(nl.dffLoadCount(d), 1);
  const auto sources = nl.sourceNets();
  ASSERT_EQ(sources.size(), 2u);  // PI + DFF q
  EXPECT_EQ(sources[0], in);
  EXPECT_EQ(sources[1], q);
  // The DFF boundary also breaks would-be cycles.
  LogicNetlist loop;
  const NetId lq = loop.addNet("q");
  const NetId ld = loop.addNet("d");
  loop.addGate(GateKind::kInv, {lq}, ld);
  loop.addDff(ld, lq);
  EXPECT_NO_THROW(loop.validate());
}

TEST(LogicNetlistTest, TopologicalOrderRespectsDependencies) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  nl.markPrimaryInput(a);
  const NetId b = nl.addNet("b");
  const NetId c = nl.addNet("c");
  const NetId d = nl.addNet("d");
  const GateId g_c = nl.addGate(GateKind::kNand2, {a, b}, c);
  const GateId g_b = nl.addGate(GateKind::kInv, {a}, b);
  const GateId g_d = nl.addGate(GateKind::kInv, {c}, d);
  const auto order = nl.topologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](GateId g) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == g) {
        return i;
      }
    }
    return order.size();
  };
  EXPECT_LT(pos(g_b), pos(g_c));
  EXPECT_LT(pos(g_c), pos(g_d));
}

TEST(LogicNetlistTest, CombinationalCycleDetected) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  const NetId b = nl.addNet("b");
  nl.addGate(GateKind::kInv, {a}, b);
  nl.addGate(GateKind::kInv, {b}, a);
  EXPECT_THROW(nl.topologicalOrder(), Error);
  EXPECT_THROW(nl.validate(), Error);
}

TEST(LogicNetlistTest, ValidateCatchesUndrivenInputs) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");  // never driven
  const NetId out = nl.addNet("out");
  nl.addGate(GateKind::kInv, {a}, out);
  EXPECT_THROW(nl.validate(), Error);
}

// One check of every concatenated-message family, pinned to its exact
// text: the messages are built only when the check fails.
TEST(LogicNetlistTest, ErrorMessagesNameTheOffendingNet) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  EXPECT_EQ(errorMessage([&] { nl.addNet("a"); }),
            "LogicNetlist::addNet: duplicate net name 'a'");
  EXPECT_EQ(errorMessage([&] { (void)nl.net("zz"); }),
            "LogicNetlist::net: unknown net 'zz'");
  nl.markPrimaryInput(a);
  EXPECT_EQ(errorMessage([&] { nl.markPrimaryInput(a); }),
            "markPrimaryInput: net 'a' already driven");
  EXPECT_EQ(errorMessage([&] { nl.addDff(a, a); }),
            "addDff: q net 'a' already driven");

  LogicNetlist gate_reads_undriven;
  const NetId u = gate_reads_undriven.addNet("u");
  const NetId out = gate_reads_undriven.addNet("out");
  gate_reads_undriven.addGate(GateKind::kInv, {u}, out, "g0");
  EXPECT_EQ(errorMessage([&] { gate_reads_undriven.validate(); }),
            "validate: gate 'g0' reads undriven net 'u'");

  LogicNetlist dff_reads_undriven;
  const NetId d = dff_reads_undriven.addNet("d");
  const NetId q = dff_reads_undriven.addNet("q");
  dff_reads_undriven.addDff(d, q, "ff0");
  EXPECT_EQ(errorMessage([&] { dff_reads_undriven.validate(); }),
            "validate: DFF 'ff0' reads undriven net 'd'");

  LogicNetlist undriven_output;
  undriven_output.markPrimaryOutput(undriven_output.addNet("p"));
  EXPECT_EQ(errorMessage([&] { undriven_output.validate(); }),
            "validate: primary output 'p' undriven");
}

TEST(LogicNetlistTest, StatsComputeDepthAndFanout) {
  LogicNetlist nl;
  const NetId a = nl.addNet("a");
  nl.markPrimaryInput(a);
  NetId prev = a;
  for (int i = 0; i < 5; ++i) {
    const NetId next = nl.addNet("n" + std::to_string(i));
    nl.addGate(GateKind::kInv, {prev}, next);
    prev = next;
  }
  nl.markPrimaryOutput(prev);
  const NetlistStats stats = computeStats(nl);
  EXPECT_EQ(stats.gates, 5u);
  EXPECT_EQ(stats.logic_depth, 5);
  EXPECT_EQ(stats.max_fanout, 1);
  EXPECT_EQ(stats.primary_inputs, 1u);
  EXPECT_EQ(stats.primary_outputs, 1u);
}

}  // namespace
}  // namespace nanoleak::logic
