/// @file
/// Characterization cache: memoizes the expensive fixture-solve sweeps that
/// build leakage tables. An entry is one gate kind's tables along a
/// temperature axis, keyed by (device parameters, temperature list, gate
/// kind, characterization options): a plain corner lookup is the
/// one-temperature axis, and a thermal sweep is one lookup per kind.
/// Repeated corners - e.g. many Monte-Carlo jobs or estimation requests on
/// the same technology, or a thermal sweep rerun on the same grid -
/// characterize once.
///
/// Lookup, coalescing of concurrent misses, accounting and LRU eviction
/// are engine::MemoCache's (memo_cache.h), mirrored into the
/// `table_cache.*` metrics. Entries are immutable once built and handed
/// out as shared_ptr-to-const, so workers may read them freely.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/characterizer.h"
#include "core/leakage_table.h"
#include "device/device_params.h"
#include "engine/memo_cache.h"
#include "gates/gate_library.h"

namespace nanoleak::engine {

/// Memoizing corner -> characterized-tables cache (see file comment).
class TableCache {
 public:
  /// All input-vector tables of one gate kind (vectorIndex order).
  using KindTables = std::vector<core::VectorTable>;
  /// One gate kind's tables at each temperature of an axis: element t
  /// holds the KindTables at temperatures[t].
  using KindAxis = std::vector<KindTables>;
  /// Characterization function a miss invokes for (technology, kind,
  /// temperatures, options); the technology's own temperature_k is not
  /// used. The default runs core::Characterizer::characterizeKind(kind,
  /// temperatures); tests substitute a controllable builder.
  using Builder = std::function<KindAxis(
      const device::Technology&, gates::GateKind, const std::vector<double>&,
      const core::CharacterizationOptions&)>;

  /// Cache whose misses run core::Characterizer.
  TableCache();
  /// Cache with a custom characterization function.
  explicit TableCache(Builder builder);

  /// Characterized tables (all input vectors) of one gate kind under one
  /// technology corner: the one-temperature axis {technology.temperature_k},
  /// characterized on miss and returned without a copy. Only
  /// options.loading_grid and options.solver_path affect the result (and
  /// the key); options.kinds is ignored.
  std::shared_ptr<const KindTables> kindTables(
      const device::Technology& technology, gates::GateKind kind,
      const core::CharacterizationOptions& options = {});

  /// Whole library for a kind set at the technology's temperature,
  /// assembled from per-kind cache entries.
  core::LeakageLibrary library(const device::Technology& technology,
                               const std::vector<gates::GateKind>& kinds,
                               const core::CharacterizationOptions& options = {});

  /// One library per temperature of `temperatures` (strictly increasing;
  /// `base`'s own temperature_k is not used), each kind one cache entry
  /// for the whole axis. On the kCompiledWarmStart path a kind's tables
  /// depend on the whole list (see core::Characterizer), which the key
  /// carries, so two different lists never share an entry. Throws
  /// nanoleak::Error on an empty or non-increasing list and
  /// ConvergenceError if a solve fails.
  std::vector<core::LeakageLibrary> libraries(
      const device::Technology& base,
      const std::vector<gates::GateKind>& kinds,
      const std::vector<double>& temperatures,
      const core::CharacterizationOptions& options = {});

  /// Lookup counters (monotonic since construction).
  using Stats = MemoCache<KindAxis>::Stats;
  /// Snapshot of the lookup counters.
  Stats stats() const { return cache_.stats(); }
  /// Number of entries (one per kind and temperature axis, including
  /// in-flight misses).
  std::size_t size() const { return cache_.size(); }
  /// Drops every entry; stats are kept. In-flight misses finish safely.
  void clear() { cache_.clear(); }
  /// Caps the entry count (0, the default, means unbounded): the
  /// least-recently-used finished entries are dropped until the cache
  /// fits; in-flight misses are never evicted. Handed-out tables stay
  /// valid after eviction.
  void setMaxEntries(std::size_t max_entries) {
    cache_.setMaxEntries(max_entries);
  }
  /// The current entry cap (0 = unbounded).
  std::size_t maxEntries() const { return cache_.maxEntries(); }

  /// Cache key of one kind's temperature axis: an exact textual
  /// fingerprint of every leakage-relevant parameter (hexfloat, so
  /// distinct doubles never collide), with `temperatures` in place of the
  /// technology's own temperature. Exposed for tests.
  static std::string cornerKey(const device::Technology& technology,
                               gates::GateKind kind,
                               const std::vector<double>& temperatures,
                               const core::CharacterizationOptions& options);

  /// The technology-corner part of a key: supply rail, temperature,
  /// sizing and every NMOS/PMOS model parameter in hexfloat - no gate
  /// kind, no characterization options. Shared with PlanCache, whose
  /// content keys must fingerprint the same corner identically.
  static std::string technologyKey(const device::Technology& technology);

 private:
  /// The cached axis of `kind` over `temperatures`, built on miss.
  std::shared_ptr<const KindAxis> axis(
      const device::Technology& technology, gates::GateKind kind,
      const std::vector<double>& temperatures,
      const core::CharacterizationOptions& options);

  Builder builder_;
  MemoCache<KindAxis> cache_;
};

}  // namespace nanoleak::engine
