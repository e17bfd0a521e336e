#include "engine/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "engine/table_cache.h"
#include "logic/generators.h"
#include "util/error.h"

namespace nanoleak::engine {
namespace {

core::CharacterizationOptions quickOptions() {
  core::CharacterizationOptions options;
  options.loading_grid = {0.0, 1.0e-6};
  return options;
}

/// Compiles a real entry for `netlist` the way the scenario runner does:
/// heap-owned netlist and library so the plan's references stay valid.
std::shared_ptr<const PlanCache::Entry> compileEntry(
    const logic::LogicNetlist& netlist, const device::Technology& tech) {
  auto entry = std::make_shared<PlanCache::Entry>();
  auto owned = std::make_unique<const logic::LogicNetlist>(netlist);
  TableCache tables;
  entry->library = std::make_unique<const core::LeakageLibrary>(
      tables.library(tech, core::estimationKinds(*owned), quickOptions()));
  entry->plan = std::make_unique<const core::EstimationPlan>(
      *owned, *entry->library, core::EstimatorOptions{});
  entry->netlist = std::move(owned);
  return entry;
}

TEST(PlanCacheTest, ContentKeyFingerprintsStructureNotNames) {
  const device::Technology tech = device::defaultTechnology();
  const core::EstimatorOptions est;
  const auto copts = quickOptions();

  logic::LogicNetlist a;
  const auto a_in = a.addNet("in");
  const auto a_out = a.addNet("out");
  a.markPrimaryInput(a_in);
  a.markPrimaryOutput(a_out);
  a.addGate(gates::GateKind::kInv, {a_in}, a_out);

  // Same structure, different net and gate names: identical key.
  logic::LogicNetlist b;
  const auto b_in = b.addNet("renamed_input");
  const auto b_out = b.addNet("renamed_output");
  b.markPrimaryInput(b_in);
  b.markPrimaryOutput(b_out);
  b.addGate(gates::GateKind::kInv, {b_in}, b_out, "g_renamed");

  const std::string key_a = PlanCache::contentKey(a, tech, est, copts);
  EXPECT_EQ(key_a, PlanCache::contentKey(b, tech, est, copts));

  // Different gate kind: different key.
  logic::LogicNetlist c;
  const auto c_in = c.addNet("in");
  const auto c_out = c.addNet("out");
  c.markPrimaryInput(c_in);
  c.markPrimaryOutput(c_out);
  c.addGate(gates::GateKind::kBuf, {c_in}, c_out);
  EXPECT_NE(key_a, PlanCache::contentKey(c, tech, est, copts));

  // Corner and option changes: different key.
  device::Technology warmer = tech;
  warmer.temperature_k += 1.0;
  EXPECT_NE(key_a, PlanCache::contentKey(a, warmer, est, copts));
  core::EstimatorOptions no_loading = est;
  no_loading.with_loading = false;
  EXPECT_NE(key_a, PlanCache::contentKey(a, tech, no_loading, copts));
  auto coarse = copts;
  coarse.loading_grid = {0.0};
  EXPECT_NE(key_a, PlanCache::contentKey(a, tech, est, coarse));
}

TEST(PlanCacheTest, SecondLookupSharesTheCompiledPlan) {
  PlanCache cache;
  const device::Technology tech = device::defaultTechnology();
  const logic::LogicNetlist netlist = logic::inverterChain(4);
  const std::string key = PlanCache::contentKey(
      netlist, tech, core::EstimatorOptions{}, quickOptions());

  int builds = 0;
  const auto build = [&] {
    ++builds;
    return compileEntry(netlist, tech);
  };
  const auto first = cache.get(key, build);
  const auto second = cache.get(key, build);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->plan.get(), second->plan.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, RejectsAPartiallyPopulatedEntry) {
  PlanCache cache;
  EXPECT_THROW(cache.get("partial", [] {
    return std::make_shared<PlanCache::Entry>();  // all three null
  }),
               Error);
  // The failed slot was removed; the key can be retried.
  EXPECT_EQ(cache.size(), 0u);
  const device::Technology tech = device::defaultTechnology();
  const logic::LogicNetlist netlist = logic::inverterChain(2);
  const auto entry =
      cache.get("partial", [&] { return compileEntry(netlist, tech); });
  EXPECT_NE(entry->plan.get(), nullptr);
}

}  // namespace
}  // namespace nanoleak::engine
