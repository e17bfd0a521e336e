#include "engine/table_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace nanoleak::engine {
namespace {

core::CharacterizationOptions quickOptions() {
  core::CharacterizationOptions options;
  options.loading_grid = {0.0, 1.0e-6};
  return options;
}

TEST(TableCacheTest, SecondLookupIsAHit) {
  TableCache cache;
  const device::Technology tech = device::defaultTechnology();
  const auto first = cache.kindTables(tech, gates::GateKind::kInv,
                                      quickOptions());
  const auto second = cache.kindTables(tech, gates::GateKind::kInv,
                                       quickOptions());
  EXPECT_EQ(first.get(), second.get());  // shared immutable entry
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TableCacheTest, TemperatureChangesTheKey) {
  TableCache cache;
  device::Technology tech = device::defaultTechnology();
  cache.kindTables(tech, gates::GateKind::kInv, quickOptions());
  tech.temperature_k = 350.0;
  cache.kindTables(tech, gates::GateKind::kInv, quickOptions());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TableCacheTest, CornerKeySeparatesKindsDeviceParamsAndTemperatures) {
  const device::Technology tech = device::defaultTechnology();
  const auto options = quickOptions();
  const std::vector<double> axis = {300.0, 350.0};
  const std::string inv =
      TableCache::cornerKey(tech, gates::GateKind::kInv, axis, options);
  EXPECT_NE(inv, TableCache::cornerKey(tech, gates::GateKind::kNand2, axis,
                                       options));
  device::Technology perturbed = tech;
  perturbed.nmos.vth0 += 1e-12;  // tiniest parameter change -> new corner
  EXPECT_NE(inv, TableCache::cornerKey(perturbed, gates::GateKind::kInv,
                                       axis, options));
  // The temperature list is the key's temperature: any change to it is a
  // new entry, and the technology's own temperature is not part of it.
  EXPECT_NE(inv, TableCache::cornerKey(tech, gates::GateKind::kInv,
                                       {300.0, 351.0}, options));
  EXPECT_NE(inv, TableCache::cornerKey(tech, gates::GateKind::kInv, {300.0},
                                       options));
  device::Technology warmer = tech;
  warmer.temperature_k += 1.0;
  EXPECT_EQ(inv, TableCache::cornerKey(warmer, gates::GateKind::kInv, axis,
                                       options));
}

TEST(TableCacheTest, MatchesDirectCharacterization) {
  TableCache cache;
  const device::Technology tech = device::defaultTechnology();
  const auto options = quickOptions();
  const auto cached = cache.kindTables(tech, gates::GateKind::kInv, options);
  const auto direct =
      core::Characterizer(tech, options).characterizeKind(gates::GateKind::kInv);
  ASSERT_EQ(cached->size(), direct.size());
  for (std::size_t v = 0; v < direct.size(); ++v) {
    EXPECT_EQ((*cached)[v].nominal.total(), direct[v].nominal.total());
    EXPECT_EQ((*cached)[v].isolated_nominal.subthreshold,
              direct[v].isolated_nominal.subthreshold);
  }
}

TEST(TableCacheTest, LibraryComposesCachedKinds) {
  TableCache cache;
  const device::Technology tech = device::defaultTechnology();
  const auto options = quickOptions();
  const core::LeakageLibrary library = cache.library(
      tech, {gates::GateKind::kInv, gates::GateKind::kNand2}, options);
  EXPECT_TRUE(library.has(gates::GateKind::kInv));
  EXPECT_TRUE(library.has(gates::GateKind::kNand2));
  EXPECT_EQ(library.meta().temperature_k, tech.temperature_k);
  // Rebuilding the library only hits the cache.
  const auto misses_before = cache.stats().misses;
  cache.library(tech, {gates::GateKind::kInv, gates::GateKind::kNand2},
                options);
  EXPECT_EQ(cache.stats().misses, misses_before);
}

TEST(TableCacheTest, SolverPathChangesTheKey) {
  const device::Technology tech = device::defaultTechnology();
  auto options = quickOptions();
  const std::string warm =
      TableCache::cornerKey(tech, gates::GateKind::kInv, {300.0}, options);
  options.solver_path = core::CharacterizationOptions::SolverPath::kLegacy;
  EXPECT_NE(warm, TableCache::cornerKey(tech, gates::GateKind::kInv, {300.0},
                                        options));
}

TEST(TableCacheTest, OneTemperatureAxisIsThePlainCorner) {
  // characterizeKind(kind) is characterizeKind(kind, {T})[0], so a
  // one-temperature axis and a plain lookup are one entry.
  TableCache cache;
  const device::Technology tech = device::defaultTechnology();
  const auto options = quickOptions();
  const std::vector<core::LeakageLibrary> axis = cache.libraries(
      tech, {gates::GateKind::kInv}, {tech.temperature_k}, options);
  const auto plain = cache.kindTables(tech, gates::GateKind::kInv, options);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_EQ(axis.size(), 1u);
  ASSERT_EQ(plain->size(), axis[0].tables(gates::GateKind::kInv).size());
  for (std::size_t v = 0; v < plain->size(); ++v) {
    EXPECT_EQ((*plain)[v].nominal.total(),
              axis[0].table(gates::GateKind::kInv, v).nominal.total());
  }
}

TEST(TableCacheTest, LibrariesCacheOneEntryPerKindAxis) {
  TableCache cache;
  device::Technology base = device::defaultTechnology();
  base.temperature_k = 1.0;  // ignored: the temperature list governs
  const auto options = quickOptions();
  const std::vector<double> temps = {250.0, 300.0, 350.0};
  const std::vector<gates::GateKind> kinds = {gates::GateKind::kInv,
                                              gates::GateKind::kNand2};
  const std::vector<core::LeakageLibrary> libraries =
      cache.libraries(base, kinds, temps, options);
  EXPECT_EQ(cache.stats().misses, kinds.size());
  EXPECT_EQ(cache.size(), kinds.size());
  ASSERT_EQ(libraries.size(), temps.size());
  for (std::size_t t = 0; t < temps.size(); ++t) {
    EXPECT_EQ(libraries[t].meta().temperature_k, temps[t]);
    EXPECT_EQ(libraries[t].meta().vdd, base.vdd);
  }
  for (gates::GateKind kind : kinds) {
    const auto direct =
        core::Characterizer(base, options).characterizeKind(kind, temps);
    for (std::size_t t = 0; t < temps.size(); ++t) {
      for (std::size_t v = 0; v < direct[t].size(); ++v) {
        EXPECT_EQ(libraries[t].table(kind, v).nominal.total(),
                  direct[t][v].nominal.total());
      }
    }
  }
  // The same axis again only hits.
  (void)cache.libraries(base, kinds, temps, options);
  EXPECT_EQ(cache.stats().misses, kinds.size());
  EXPECT_EQ(cache.stats().hits, kinds.size());
}

TEST(TableCacheTest, RejectsABuilderThatMissesATemperature) {
  TableCache cache([](const device::Technology&, gates::GateKind,
                      const std::vector<double>&,
                      const core::CharacterizationOptions&) {
    return TableCache::KindAxis{};  // no tables for the one temperature
  });
  EXPECT_THROW((void)cache.kindTables(device::defaultTechnology(),
                                      gates::GateKind::kInv, quickOptions()),
               Error);
  EXPECT_EQ(cache.size(), 0u);  // erased, so the corner can be retried
}

}  // namespace
}  // namespace nanoleak::engine
