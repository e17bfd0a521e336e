// Building blocks of the sleep-vector search: ternary propagation + trail,
// per-(gate, vector) leakage intervals, and the incremental bound tracker.
// Each block's contract is checked against a straightforward recomputation
// (full logic simulation, full estimates). The gate truth tables the
// propagator reads are pinned in tests/gates/gate_library_test.cpp.
#include "search/bounds.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/characterizer.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
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

INSTANTIATE_TEST_SUITE_P(LoadingOnOff, BoundsTest, ::testing::Bool());

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
