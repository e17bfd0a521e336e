// Building blocks of the sleep-vector search: ternary propagation + trail,
// per-(gate, vector) leakage intervals, the sources' static impact scores
// and the incremental bound tracker. Each block's contract is checked
// against a straightforward recomputation (full logic simulation, full
// estimates, a cell-by-cell rectangle scan, per-source cone searches). The
// gate truth tables the propagator reads are pinned in
// tests/gates/gate_library_test.cpp.
#include "search/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/characterizer.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "scenario/scenario.h"
#include "search/activity_heap.h"
#include "search/ternary.h"
#include "util/rng.h"

namespace nanoleak::search {
namespace {

const core::LeakageLibrary& lib() {
  static const core::LeakageLibrary library = [] {
    core::CharacterizationOptions options;
    options.kinds = core::generatorGateKinds();
    return core::Characterizer(device::defaultTechnology(), options)
        .characterize();
  }();
  return library;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A synthetic ISCAS-like circuit with DFFs (pseudo sources and D-pin
/// loads) beside the catalogue's.
logic::LogicNetlist syntheticWithDffs() {
  logic::SyntheticSpec spec;
  spec.name = "dff_mix";
  spec.primary_inputs = 6;
  spec.primary_outputs = 4;
  spec.dffs = 5;
  spec.gates = 80;
  return logic::synthesizeIscasLike(spec, 11);
}

/// Endpoints of every (gate, vector) interval, [gate][vector].
struct Intervals {
  std::vector<std::vector<double>> lo;
  std::vector<std::vector<double>> hi;
};

/// LeakageBounds by its definition, the oracle for its rectangle tables:
/// each gate's loading caps, then, per vector, the min and max grid-point
/// sum sub + gate + btbt over the reachable rectangle, scanned cell by cell
/// in row-major order.
Intervals scannedIntervals(const core::EstimationPlan& plan) {
  const logic::LogicNetlist& netlist = plan.netlist();
  const core::LeakageLibrary& library = plan.library();
  const bool with_loading = plan.options().with_loading;
  constexpr double kSlack = LeakageBounds::kRelativeSlack;
  const auto pin_max = [&](gates::GateKind kind, std::size_t pin) {
    double m = 0.0;
    for (const core::VectorTable& t : library.tables(kind)) {
      m = std::max(m, std::abs(t.pin_current[pin]));
    }
    return m;
  };
  const auto cap_index = [](const core::Axis& axis, double cap) {
    for (std::size_t i = 0; i < axis.size(); ++i) {
      if (axis[i] >= cap) {
        return i;
      }
    }
    return axis.size() - 1;
  };

  std::vector<double> net_max_abs(netlist.netCount(), 0.0);
  const double dff_pin_max =
      netlist.dffs().empty() ? 0.0 : pin_max(gates::GateKind::kInv, 0);
  if (with_loading) {
    for (logic::NetId net = 0; net < netlist.netCount(); ++net) {
      double sum = 0.0;
      for (const logic::PinRef& ref : netlist.fanout(net)) {
        sum += pin_max(netlist.gate(ref.gate).kind,
                       static_cast<std::size_t>(ref.pin));
      }
      sum += static_cast<double>(netlist.dffLoadCount(net)) * dff_pin_max;
      net_max_abs[net] = sum;
    }
  }

  Intervals out;
  for (logic::GateId g = 0; g < netlist.gateCount(); ++g) {
    const logic::Gate& gate = netlist.gate(g);
    const std::vector<core::VectorTable>& tables = library.tables(gate.kind);
    std::vector<double> lo(tables.size());
    std::vector<double> hi(tables.size());
    double il_cap = 0.0;
    for (logic::NetId in : gate.inputs) {
      if (netlist.driverKind(in) != logic::DriverKind::kPrimaryInput) {
        il_cap += net_max_abs[in];
      }
    }
    const double ol_cap = net_max_abs[gate.output];
    for (std::size_t v = 0; v < tables.size(); ++v) {
      const core::VectorTable& t = tables[v];
      double min = std::numeric_limits<double>::infinity();
      double max = -std::numeric_limits<double>::infinity();
      if (!with_loading) {
        min = max = t.isolated_nominal.total();
      } else {
        const std::size_t i_cap = cap_index(t.il_axis, il_cap);
        const std::size_t j_cap = cap_index(t.ol_axis, ol_cap);
        for (std::size_t i = 0; i <= i_cap; ++i) {
          for (std::size_t j = 0; j <= j_cap; ++j) {
            const double sum =
                t.subthreshold.at(i, j) + t.gate.at(i, j) + t.btbt.at(i, j);
            min = std::min(min, sum);
            max = std::max(max, sum);
          }
        }
      }
      lo[v] = min - kSlack * std::abs(min);
      hi[v] = max + kSlack * std::abs(max);
    }
    out.lo.push_back(std::move(lo));
    out.hi.push_back(std::move(hi));
  }
  return out;
}

/// Every interval of `bounds` equals the scan's bit for bit.
void expectScannedIntervals(const core::EstimationPlan& plan,
                            const LeakageBounds& bounds,
                            const std::string& what) {
  const Intervals scanned = scannedIntervals(plan);
  for (logic::GateId g = 0; g < plan.netlist().gateCount(); ++g) {
    for (std::size_t v = 0; v < scanned.lo[g].size(); ++v) {
      EXPECT_EQ(bits(bounds.vectorMin(g, v)), bits(scanned.lo[g][v]))
          << what << " gate " << g << " vector " << v;
      EXPECT_EQ(bits(bounds.vectorMax(g, v)), bits(scanned.hi[g][v]))
          << what << " gate " << g << " vector " << v;
    }
  }
}

/// Each source's fanout cone (the gates a breadth-first search over
/// fanout() reaches from it), listed in topologicalOrder() order, so two
/// cones are the same set exactly when the lists are equal.
std::vector<std::vector<logic::GateId>> fanoutCones(
    const logic::LogicNetlist& netlist) {
  const std::vector<logic::GateId> order = netlist.topologicalOrder();
  std::vector<std::vector<logic::GateId>> cones;
  for (const logic::NetId source : netlist.sourceNets()) {
    std::vector<bool> in_cone(netlist.gateCount(), false);
    std::deque<logic::NetId> frontier = {source};
    while (!frontier.empty()) {
      const logic::NetId net = frontier.front();
      frontier.pop_front();
      for (const logic::PinRef& ref : netlist.fanout(net)) {
        if (!in_cone[ref.gate]) {
          in_cone[ref.gate] = true;
          frontier.push_back(netlist.gate(ref.gate).output);
        }
      }
    }
    std::vector<logic::GateId> cone;
    for (const logic::GateId g : order) {
      if (in_cone[g]) {
        cone.push_back(g);
      }
    }
    cones.push_back(std::move(cone));
  }
  return cones;
}

/// staticImpact by its definition: each cone's bound widths summed in
/// topological order.
std::vector<double> coneImpacts(
    const LeakageBounds& bounds, const logic::LogicNetlist& netlist,
    const std::vector<std::vector<logic::GateId>>& cones) {
  std::vector<double> impact;
  for (const std::vector<logic::GateId>& cone : cones) {
    double sum = 0.0;
    for (const logic::GateId g : cone) {
      const std::size_t nv = std::size_t{1} << netlist.gate(g).inputs.size();
      const std::uint32_t all = nv >= 32 ? 0xffffffffu : ((1u << nv) - 1u);
      sum += bounds.maskMax(g, all) - bounds.maskMin(g, all);
    }
    impact.push_back(sum);
  }
  return impact;
}

TEST(TernaryPropagatorTest, KnownNetsAlwaysAgreeWithFullSimulation) {
  for (const logic::LogicNetlist& netlist :
       {logic::c17(), logic::rippleCarryAdder(4), logic::fanoutStar(6)}) {
    const logic::LogicSimulator sim(netlist);
    TernaryPropagator prop(netlist);
    ASSERT_EQ(prop.sourceCount(), sim.sourceCount());
    Rng rng(7);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<bool> pattern =
          logic::randomPattern(prop.sourceCount(), rng);
      const std::vector<bool> values = sim.simulate(pattern);
      // Assign one source per level, in a trial-dependent rotation, and
      // check after every level that whatever became known agrees with
      // the full simulation of the complete pattern (partial implications
      // must hold for every completion, this one included).
      for (std::size_t i = 0; i < prop.sourceCount(); ++i) {
        const std::size_t s = (i + trial) % prop.sourceCount();
        EXPECT_FALSE(prop.sourceAssigned(s));
        prop.assign(s, pattern[s]);
        for (logic::NetId net = 0; net < netlist.netCount(); ++net) {
          if (prop.value(net) != Ternary::kUnknown) {
            EXPECT_EQ(prop.value(net) == Ternary::kTrue, values[net])
                << "net " << net << " after assigning source " << s;
          }
        }
      }
      // A full assignment determines every net...
      for (logic::NetId net = 0; net < netlist.netCount(); ++net) {
        EXPECT_NE(prop.value(net), Ternary::kUnknown) << "net " << net;
      }
      // ...and each gate's possible-vector set to the simulated singleton.
      for (logic::GateId g = 0; g < netlist.gateCount(); ++g) {
        const logic::Gate& gate = netlist.gate(g);
        std::uint32_t expected_vector = 0;
        for (std::size_t k = 0; k < gate.inputs.size(); ++k) {
          expected_vector |= values[gate.inputs[k]] ? (1u << k) : 0u;
        }
        EXPECT_EQ(prop.possibleVectors(g), 1u << expected_vector)
            << "gate " << g;
      }
      // Backtracking every level restores the blank state exactly.
      while (prop.level() > 0) {
        prop.backtrack();
      }
      for (logic::NetId net = 0; net < netlist.netCount(); ++net) {
        EXPECT_EQ(prop.value(net), Ternary::kUnknown);
      }
    }
  }
}

TEST(TernaryPropagatorTest, ControllingValueImpliesOutputsEarly) {
  // c17 is all NAND2: a single false input pins the gate's output to true
  // long before the other pin is known.
  const logic::LogicNetlist netlist = logic::c17();
  TernaryPropagator prop(netlist);
  prop.assign(0, false);  // G1 = 0 forces the first NAND's output high.
  std::size_t known_gates = 0;
  for (logic::GateId g = 0; g < netlist.gateCount(); ++g) {
    known_gates +=
        prop.value(netlist.gate(g).output) != Ternary::kUnknown ? 1 : 0;
  }
  EXPECT_GE(known_gates, 1u);
  EXPECT_GE(prop.lastImplied().size(), 2u);  // decision net + implications
}

class BoundsTest : public ::testing::TestWithParam<bool> {};

TEST_P(BoundsTest, IntervalsContainEveryPerGateEstimate) {
  const bool with_loading = GetParam();
  for (const logic::LogicNetlist& netlist :
       {logic::c17(), logic::rippleCarryAdder(4)}) {
    core::EstimatorOptions options;
    options.with_loading = with_loading;
    const core::EstimationPlan plan(netlist, lib(), options);
    const LeakageBounds bounds(plan);
    const logic::LogicSimulator sim(netlist);
    core::EstimationWorkspace ws(plan);
    Rng rng(11);
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<bool> pattern =
          logic::randomPattern(plan.sourceCount(), rng);
      const core::EstimateResult result = plan.estimate(pattern, ws);
      const std::vector<bool> values = sim.simulate(pattern);
      for (logic::GateId g = 0; g < netlist.gateCount(); ++g) {
        const logic::Gate& gate = netlist.gate(g);
        std::size_t v = 0;
        for (std::size_t k = 0; k < gate.inputs.size(); ++k) {
          v |= values[gate.inputs[k]] ? (std::size_t{1} << k) : 0u;
        }
        const double total = result.per_gate[g].leakage.total();
        EXPECT_LE(bounds.vectorMin(g, v), total)
            << "gate " << g << " vector " << v << " loading "
            << with_loading;
        EXPECT_GE(bounds.vectorMax(g, v), total)
            << "gate " << g << " vector " << v << " loading "
            << with_loading;
      }
    }
  }
}

TEST_P(BoundsTest, RootIntervalContainsEveryFullVectorTotal) {
  const bool with_loading = GetParam();
  const logic::LogicNetlist netlist = logic::c17();
  core::EstimatorOptions options;
  options.with_loading = with_loading;
  const core::EstimationPlan plan(netlist, lib(), options);
  const LeakageBounds bounds(plan);
  TernaryPropagator prop(netlist);
  const BoundTracker tracker(plan, prop, bounds);
  const double root_min = tracker.exactMin();
  const double root_max = tracker.exactMax();
  EXPECT_LT(root_min, root_max);

  core::EstimationWorkspace ws(plan);
  const std::size_t n = plan.sourceCount();
  for (std::size_t bits = 0; bits < (std::size_t{1} << n); ++bits) {
    std::vector<bool> pattern(n);
    for (std::size_t k = 0; k < n; ++k) {
      pattern[k] = (bits >> k) & 1u;
    }
    const double total = plan.estimate(pattern, ws).total.total();
    EXPECT_LE(root_min, total) << "vector " << bits;
    EXPECT_GE(root_max, total) << "vector " << bits;
  }
}

TEST_P(BoundsTest, TrackerTightensMonotonicallyAndPopsExactly) {
  const bool with_loading = GetParam();
  const logic::LogicNetlist netlist = logic::rippleCarryAdder(4);
  core::EstimatorOptions options;
  options.with_loading = with_loading;
  const core::EstimationPlan plan(netlist, lib(), options);
  const LeakageBounds bounds(plan);
  TernaryPropagator prop(netlist);
  BoundTracker tracker(plan, prop, bounds);

  Rng rng(3);
  const std::vector<bool> pattern =
      logic::randomPattern(plan.sourceCount(), rng);
  std::vector<double> mins = {tracker.exactMin()};
  std::vector<double> maxs = {tracker.exactMax()};
  for (std::size_t s = 0; s < plan.sourceCount(); ++s) {
    prop.assign(s, pattern[s]);
    tracker.push(prop.lastImplied());
    // Narrowing possible-vector sets can only tighten the interval.
    EXPECT_GE(tracker.exactMin(), mins.back()) << "level " << s + 1;
    EXPECT_LE(tracker.exactMax(), maxs.back()) << "level " << s + 1;
    // The incremental sums are order-free: no drift at any level.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tracker.runningMin()),
              std::bit_cast<std::uint64_t>(tracker.exactMin()))
        << "level " << s + 1;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tracker.runningMax()),
              std::bit_cast<std::uint64_t>(tracker.exactMax()))
        << "level " << s + 1;
    mins.push_back(tracker.exactMin());
    maxs.push_back(tracker.exactMax());
  }
  // The fully-assigned interval still contains the real total.
  core::EstimationWorkspace ws(plan);
  const double total = plan.estimate(pattern, ws).total.total();
  EXPECT_LE(tracker.exactMin(), total);
  EXPECT_GE(tracker.exactMax(), total);
  // Popping levels restores each recorded interval bit-for-bit (the
  // per-gate endpoints are restored from the trail, and the order-free
  // sums depend only on them).
  for (std::size_t s = plan.sourceCount(); s > 0; --s) {
    tracker.pop();
    prop.backtrack();
    EXPECT_EQ(tracker.exactMin(), mins[s - 1]) << "pop to level " << s - 1;
    EXPECT_EQ(tracker.exactMax(), maxs[s - 1]) << "pop to level " << s - 1;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tracker.runningMin()),
              std::bit_cast<std::uint64_t>(tracker.exactMin()))
        << "pop to level " << s - 1;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tracker.runningMax()),
              std::bit_cast<std::uint64_t>(tracker.exactMax()))
        << "pop to level " << s - 1;
  }
}

TEST_P(BoundsTest, IntervalsEqualTheRectangleScanBitwise) {
  core::EstimatorOptions options;
  options.with_loading = GetParam();
  const std::vector<std::pair<std::string, logic::LogicNetlist>> circuits = {
      {"c17", logic::c17()},
      {"rca4", logic::rippleCarryAdder(4)},
      {"mult88", logic::arrayMultiplier(8)},
      {"s838", scenario::buildCircuit("s838")},
      {"dff_mix", syntheticWithDffs()}};
  for (const auto& [name, netlist] : circuits) {
    ASSERT_TRUE(name != "dff_mix" || !netlist.dffs().empty());
    const core::EstimationPlan plan(netlist, lib(), options);
    expectScannedIntervals(plan, LeakageBounds(plan), name);
  }
}

INSTANTIATE_TEST_SUITE_P(LoadingOnOff, BoundsTest, ::testing::Bool());

/// One INV vector table on a 5 x 4 (IL, OL) grid whose cell sums rise and
/// fall across both axes, so every rectangle has its own extrema.
core::VectorTable handTable(double pin_current, int phase) {
  core::VectorTable t;
  t.nominal = {1e-7, 2e-8, 3e-9};
  t.isolated_nominal = {1.1e-7, 2.1e-8, 3.1e-9};
  t.pin_current = {pin_current};
  t.il_axis = core::Axis({0.0, 1e-6, 2e-6, 3e-6, 6e-6});
  t.ol_axis = core::Axis({0.0, 1e-6, 2e-6, 4e-6});
  t.subthreshold = core::Grid2D(5, 4);
  t.gate = core::Grid2D(5, 4);
  t.btbt = core::Grid2D(5, 4);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const int k = static_cast<int>(3 * i + 7 * j) + phase;
      t.subthreshold.at(i, j) = 1e-7 * (1 + k % 5);
      t.gate.at(i, j) = 2e-8 * (1 + k % 3);
      t.btbt.at(i, j) = 3e-9 * (1 + k % 7);
    }
  }
  return t;
}

TEST(LeakageBoundsTest, CapsOnTheFirstPointBetweenPointsAndPastTheLast) {
  // Every INV pin injects at most 1.5 uA. n1 feeds one INV pin and four
  // DFF D-pins (7.5 uA), n2 one INV pin (1.5 uA), n3 nothing (0 A); the
  // primary input a adds nothing to IL. So the caps land on the axes'
  // first point, between two points and past the last, on both axes:
  //   g0 = INV(a)  -> n1: IL 0      -> row 0, OL 7.5 uA -> col 3 (last)
  //   g1 = INV(n1) -> n2: IL 7.5 uA -> row 4 (last), OL 1.5 uA -> col 2
  //   g2 = INV(n2) -> n3: IL 1.5 uA -> row 2,        OL 0      -> col 0
  core::LeakageLibrary library;
  library.insert(gates::GateKind::kInv,
                 {handTable(1.5e-6, 0), handTable(-1.2e-6, 4)});
  logic::LogicNetlist netlist;
  const logic::NetId a = netlist.addNet("a");
  const logic::NetId n1 = netlist.addNet("n1");
  const logic::NetId n2 = netlist.addNet("n2");
  const logic::NetId n3 = netlist.addNet("n3");
  netlist.markPrimaryInput(a);
  netlist.markPrimaryOutput(n3);
  netlist.addGate(gates::GateKind::kInv, {a}, n1, "g0");
  netlist.addGate(gates::GateKind::kInv, {n1}, n2, "g1");
  netlist.addGate(gates::GateKind::kInv, {n2}, n3, "g2");
  for (int k = 0; k < 4; ++k) {
    netlist.addDff(n1, netlist.addNet("q" + std::to_string(k)));
  }
  const core::EstimationPlan plan(netlist, library, {});
  const LeakageBounds bounds(plan);
  expectScannedIntervals(plan, bounds, "hand-built");

  // The rectangle each gate reaches, as the comment above derives it.
  const std::size_t last_row[] = {0, 4, 2};
  const std::size_t last_col[] = {3, 2, 0};
  for (logic::GateId g = 0; g < 3; ++g) {
    for (std::size_t v = 0; v < 2; ++v) {
      const core::VectorTable& t = library.table(gates::GateKind::kInv, v);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (std::size_t i = 0; i <= last_row[g]; ++i) {
        for (std::size_t j = 0; j <= last_col[g]; ++j) {
          const double sum =
              t.subthreshold.at(i, j) + t.gate.at(i, j) + t.btbt.at(i, j);
          lo = std::min(lo, sum);
          hi = std::max(hi, sum);
        }
      }
      EXPECT_EQ(bits(bounds.vectorMin(g, v)),
                bits(lo - LeakageBounds::kRelativeSlack * lo))
          << "gate " << g << " vector " << v;
      EXPECT_EQ(bits(bounds.vectorMax(g, v)),
                bits(hi + LeakageBounds::kRelativeSlack * hi))
          << "gate " << g << " vector " << v;
    }
  }
}

TEST(StaticImpactTest, EqualsEachConeSummedInTopologicalOrder) {
  logic::SyntheticSpec wide;
  wide.name = "wide";
  wide.primary_inputs = 150;
  wide.primary_outputs = 24;
  wide.dffs = 10;
  wide.gates = 600;
  const std::vector<std::pair<std::string, logic::LogicNetlist>> circuits = {
      {"c17", logic::c17()},
      {"rca8", logic::rippleCarryAdder(8)},
      {"s838", scenario::buildCircuit("s838")},
      {"s5378", scenario::buildCircuit("s5378")},
      {"wide", logic::synthesizeIscasLike(wide, 5)}};
  for (const auto& [name, netlist] : circuits) {
    const core::EstimationPlan plan(netlist, lib(), {});
    const LeakageBounds bounds(plan);
    const std::vector<double> impact = staticImpact(plan, bounds);
    const std::vector<double> expected =
        coneImpacts(bounds, netlist, fanoutCones(netlist));
    ASSERT_EQ(impact.size(), plan.sourceCount()) << name;
    ASSERT_EQ(expected.size(), impact.size()) << name;
    if (name == "wide") {
      EXPECT_GT(impact.size(), 128u);  // past two full 64-source words
    }
    for (std::size_t s = 0; s < impact.size(); ++s) {
      EXPECT_EQ(bits(impact[s]), bits(expected[s]))
          << name << " source " << s;
    }
  }
}

TEST(StaticImpactTest, SourcesWithTheSameConeTie) {
  for (const char* name : {"s838", "s5378", "s13207"}) {
    const logic::LogicNetlist netlist = scenario::buildCircuit(name);
    const core::EstimationPlan plan(netlist, lib(), {});
    const std::vector<double> impact =
        staticImpact(plan, LeakageBounds(plan));
    std::map<std::vector<logic::GateId>, std::vector<std::size_t>> by_cone;
    const std::vector<std::vector<logic::GateId>> cones =
        fanoutCones(netlist);
    for (std::size_t s = 0; s < cones.size(); ++s) {
      by_cone[cones[s]].push_back(s);
    }
    std::size_t pairs = 0;
    for (const auto& [cone, group] : by_cone) {
      for (std::size_t k = 1; k < group.size(); ++k) {
        ++pairs;
        EXPECT_EQ(bits(impact[group[k]]), bits(impact[group[0]]))
            << name << " sources " << group[0] << " and " << group[k]
            << " share a cone of " << cone.size() << " gates";
      }
    }
    EXPECT_GT(pairs, 0u) << name << " has no sources that share a cone";
  }
}

TEST(StaticImpactTest, AnEmptyConeScoresPositiveZero) {
  // c reaches no gate.
  logic::LogicNetlist netlist;
  const logic::NetId a = netlist.addNet("a");
  const logic::NetId b = netlist.addNet("b");
  const logic::NetId c = netlist.addNet("c");
  const logic::NetId y = netlist.addNet("y");
  for (const logic::NetId pi : {a, b, c}) {
    netlist.markPrimaryInput(pi);
  }
  netlist.markPrimaryOutput(y);
  netlist.addGate(gates::GateKind::kNand2, {a, b}, y, "g0");
  const core::EstimationPlan plan(netlist, lib(), {});
  const std::vector<double> impact = staticImpact(plan, LeakageBounds(plan));
  ASSERT_EQ(impact.size(), 3u);
  EXPECT_GT(impact[0], 0.0);
  EXPECT_EQ(bits(impact[0]), bits(impact[1]));
  EXPECT_EQ(bits(impact[2]), bits(0.0));
}

TEST(ActivityHeapTest, OrdersByScoreWithIndexTieBreak) {
  ActivityHeap heap({1.0, 3.0, 2.0, 3.0});
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.top(), 1u);  // highest score, lower index wins the tie
  EXPECT_EQ(heap.pop(), 1u);
  EXPECT_EQ(heap.pop(), 3u);
  EXPECT_EQ(heap.pop(), 2u);
  EXPECT_FALSE(heap.contains(2));
  EXPECT_EQ(heap.pop(), 0u);
  EXPECT_TRUE(heap.empty());
}

TEST(ActivityHeapTest, BumpReordersAndRescaleKeepsOrder) {
  ActivityHeap heap({1.0, 2.0, 3.0});
  heap.bump(0, 10.0);  // score 11 overtakes everyone
  EXPECT_EQ(heap.top(), 0u);
  EXPECT_DOUBLE_EQ(heap.score(0), 11.0);
  heap.rescale(0.1);
  EXPECT_EQ(heap.top(), 0u);
  EXPECT_DOUBLE_EQ(heap.score(2), 0.3);
  EXPECT_EQ(heap.pop(), 0u);
  heap.push(0);
  EXPECT_EQ(heap.top(), 0u);  // re-inserted with its retained score
}

}  // namespace
}  // namespace nanoleak::search
