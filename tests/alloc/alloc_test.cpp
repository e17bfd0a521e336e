// Allocation regression for the estimation hot path: once its buffers are
// warm, a table lookup, a logic simulation, every estimate outcome and a
// pattern block must run without touching the heap. The suite replaces
// the global operator new to count calls, which is why it is a test
// binary of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

// Counting is per thread and off outside allocationsIn(), so gtest's own
// bookkeeping never reaches the count.
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) {
    ++t_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nanoleak {
namespace {

/// Heap allocations `fn` makes on the calling thread.
template <typename Fn>
std::size_t allocationsIn(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

/// A synthetic s1423: 657 gates behind 74 DFFs, so the DFF boundary model
/// runs too.
const logic::LogicNetlist& netlist() {
  static const logic::LogicNetlist nl =
      logic::synthesizeIscasLike(logic::iscasSpec("s1423"), 1);
  return nl;
}

const core::LeakageLibrary& library() {
  static const core::LeakageLibrary lib = [] {
    core::CharacterizationOptions options;
    options.kinds = core::estimationKinds(netlist());
    options.loading_grid = {0.0, 0.5e-6, 1.0e-6, 2.0e-6, 3.0e-6, 6.0e-6};
    return core::Characterizer(device::defaultTechnology(), options)
        .characterize();
  }();
  return lib;
}

/// A random pattern `a`, `a` with one source flipped, and the complement
/// of that: one incremental step, then a change large enough to fall back
/// to full evaluation.
struct Patterns {
  std::vector<bool> start;
  std::vector<bool> one_flip;
  std::vector<bool> complement;
};

Patterns patterns(std::size_t bits) {
  Rng rng(11);
  Patterns p;
  p.start = logic::randomPattern(bits, rng);
  p.one_flip = p.start;
  p.one_flip[0] = !p.one_flip[0];
  p.complement = p.one_flip;
  p.complement.flip();
  return p;
}

TEST(AllocationTest, VectorTableLookup) {
  const core::VectorTable& table =
      library().table(gates::GateKind::kNand2, 1);
  double sink = table.lookup(1e-6, 1e-6).total();
  EXPECT_EQ(allocationsIn([&] {
              // Inside, on and beyond the characterized loading grid.
              for (double il : {0.0, 0.7e-6, 6.0e-6, 12.0e-6}) {
                for (double ol : {0.0, 2.5e-6, 8.0e-6}) {
                  sink += table.lookup(il, ol).total();
                }
              }
            }),
            0u);
  EXPECT_GT(sink, 0.0);
}

TEST(AllocationTest, LogicSimulatorOnceWarm) {
  const logic::LogicSimulator sim(netlist());
  const Patterns p = patterns(sim.sourceCount());
  std::vector<bool> values;
  std::vector<logic::GateId> dirty;
  std::vector<logic::NetId> changed;
  logic::DeltaSimScratch scratch;
  const auto run = [&] {
    sim.simulateInto(p.start, values);
    sim.simulateDelta(p.one_flip, values, dirty, changed, scratch);
    sim.simulateDelta(p.complement, values, dirty, changed, scratch);
  };
  run();  // warm-up: sizes every buffer
  EXPECT_EQ(allocationsIn([&] { sim.simulateInto(p.start, values); }), 0u);
  EXPECT_EQ(allocationsIn([&] {
              sim.simulateDelta(p.one_flip, values, dirty, changed, scratch);
            }),
            0u);
  EXPECT_EQ(allocationsIn([&] {
              sim.simulateDelta(p.complement, values, dirty, changed,
                                scratch);
            }),
            0u);
  EXPECT_EQ(values, sim.simulate(p.complement));
}

TEST(AllocationTest, EstimateOnceWarm) {
  const core::EstimationPlan plan(netlist(), library());
  core::EstimationWorkspace ws(plan);
  core::EstimateResult out;
  const Patterns p = patterns(plan.sourceCount());
  plan.estimate(p.start, ws, out);  // warm-up: sizes `out`
  EXPECT_EQ(allocationsIn([&] { plan.estimate(p.complement, ws, out); }),
            0u);
  EXPECT_GT(out.total.total(), 0.0);
}

TEST(AllocationTest, EstimateDeltaOnEveryOutcome) {
  const core::EstimationPlan plan(netlist(), library());
  core::EstimationWorkspace ws(plan);
  core::EstimateResult out;
  const Patterns p = patterns(plan.sourceCount());
  struct Step {
    const std::vector<bool>* pattern;
    const char* outcome;  // the estimate.* counter the step must bump
  };
  const Step steps[] = {{&p.one_flip, "estimate.incremental"},
                        {&p.one_flip, "estimate.unchanged"},
                        {&p.complement, "estimate.fallback_full"}};
  // Warm-up: the same sequence once, from the same starting pattern.
  plan.estimate(p.start, ws, out);
  for (const Step& step : steps) {
    plan.estimateDelta(*step.pattern, ws, out);
  }

  plan.estimate(p.start, ws, out);
  for (const Step& step : steps) {
    const std::uint64_t before = obs::counterValue(step.outcome);
    EXPECT_EQ(allocationsIn([&] {
                plan.estimateDelta(*step.pattern, ws, out);
              }),
              0u)
        << step.outcome;
    EXPECT_EQ(obs::counterValue(step.outcome), before + 1) << step.outcome;
  }
}

TEST(AllocationTest, EstimateBlockOnceWarm) {
  const core::EstimationPlan plan(netlist(), library());
  core::EstimationWorkspace ws(plan);
  Rng rng(12);
  std::vector<std::vector<bool>> warm_up, block;
  for (std::size_t i = 0; i < core::kBlockPatterns; ++i) {
    warm_up.push_back(logic::randomPattern(plan.sourceCount(), rng));
    block.push_back(logic::randomPattern(plan.sourceCount(), rng));
  }
  std::vector<core::EstimateResult> out(block.size());
  std::vector<device::LeakageBreakdown> totals(block.size());
  // Warm-up: sizes the block scratch and every out[i].
  plan.estimateBlock(warm_up, ws, out);
  const std::uint64_t blocked = obs::counterValue("estimate.blocked");
  EXPECT_EQ(allocationsIn([&] { plan.estimateBlock(block, ws, out); }), 0u);
  EXPECT_EQ(allocationsIn([&] {
              plan.estimateBlockTotals(block, ws, totals);
            }),
            0u);
  // A partial block reuses the same scratch.
  const std::span<const std::vector<bool>> three =
      std::span<const std::vector<bool>>(block).first(3);
  EXPECT_EQ(allocationsIn([&] {
              plan.estimateBlock(three, ws, std::span(out).first(3));
            }),
            0u);
  EXPECT_EQ(obs::counterValue("estimate.blocked"),
            blocked + 2 * core::kBlockPatterns + 3);
  EXPECT_EQ(out[0].total.total(), totals[0].total());
  EXPECT_GT(totals[0].total(), 0.0);
}

}  // namespace
}  // namespace nanoleak
