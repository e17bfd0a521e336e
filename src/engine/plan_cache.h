/// @file
/// Compiled-plan cache: promotes the per-run (netlist, library,
/// EstimationPlan) triple from a scenario-runner local to a first-class
/// shared service, so a daemon serving repeated estimation requests over
/// the same circuits compiles each one once and answers the rest from
/// the cache.
///
/// Keys are content hashes, not names: contentKey() fingerprints the
/// netlist structure (every gate kind, connection and flip-flop), the
/// full technology corner (via TableCache::technologyKey) and every
/// estimator/characterization option that affects the compiled tables.
/// Two requests naming different circuits that happen to be structurally
/// identical share an entry; the same circuit name under a different
/// corner or option set never does.
///
/// Lookup, coalescing, accounting and eviction are engine::MemoCache's
/// (memo_cache.h), mirrored into the `plan_cache.*` metrics.
///
/// An Entry owns its netlist and library by unique_ptr specifically
/// because EstimationPlan holds references into both: the heap
/// allocations give the plan stable addresses for the entry's whole
/// lifetime, no matter how the cache's internal map rehashes or evicts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/leakage_table.h"
#include "device/device_params.h"
#include "engine/memo_cache.h"
#include "logic/logic_netlist.h"

namespace nanoleak::engine {

/// Memoizing content-key -> compiled-estimation-plan cache (see file
/// comment).
class PlanCache {
 public:
  /// One cached compilation artifact: the netlist and characterized
  /// library the plan was compiled against, plus the plan itself. All
  /// three are immutable and heap-owned so `plan`'s internal references
  /// into `netlist` and `library` stay valid wherever the entry moves.
  struct Entry {
    /// The circuit the plan was compiled for (plan->netlist() points
    /// here).
    std::unique_ptr<const logic::LogicNetlist> netlist;
    /// The characterized tables the plan reads (plan->library() points
    /// here).
    std::unique_ptr<const core::LeakageLibrary> library;
    /// The compiled estimator; share-read by any number of workers, each
    /// with its own core::EstimationWorkspace.
    std::unique_ptr<const core::EstimationPlan> plan;
  };

  /// Compilation function a miss invokes; must return a fully populated
  /// Entry. Runs outside the cache lock, so it may characterize and
  /// compile at leisure; concurrent callers for the same key block on
  /// its result.
  using Builder = std::function<std::shared_ptr<const Entry>()>;

  /// Cache holding at most `max_entries` finished plans (0 = unbounded);
  /// see setMaxEntries() for the eviction contract.
  explicit PlanCache(std::size_t max_entries = 0)
      : cache_("plan_cache", max_entries) {}

  /// The entry for `key`, building it via `build` on a miss (see
  /// MemoCache::get for coalescing and failure handling). Throws
  /// nanoleak::Error, and keeps nothing, when the builder returns a
  /// partially populated entry. Never returns nullptr.
  std::shared_ptr<const Entry> get(const std::string& key,
                                   const Builder& build);

  /// Content fingerprint of one (netlist, technology, estimator options,
  /// characterization options) compilation input. Walks the netlist
  /// structure directly - gate kinds, input/output net ids, flip-flop
  /// pins, primary inputs/outputs - rather than a serialized text form,
  /// so every representable netlist (including gate kinds the .bench
  /// writer cannot express) gets an exact key. Net *names* do not
  /// participate: structure decides identity.
  static std::string contentKey(
      const logic::LogicNetlist& netlist,
      const device::Technology& technology,
      const core::EstimatorOptions& estimator_options,
      const core::CharacterizationOptions& characterization_options);

  /// Lookup counters (monotonic since construction).
  using Stats = MemoCache<Entry>::Stats;
  /// Snapshot of the lookup counters.
  Stats stats() const { return cache_.stats(); }
  /// Number of entries (including in-flight builds).
  std::size_t size() const { return cache_.size(); }
  /// Drops every entry; stats are kept. In-flight builds finish safely.
  void clear() { cache_.clear(); }
  /// Caps the entry count (0 = unbounded): the least-recently-used
  /// finished plans are dropped until the cache fits; in-flight builds
  /// are never evicted. Entries handed out before an eviction stay valid.
  void setMaxEntries(std::size_t max_entries) {
    cache_.setMaxEntries(max_entries);
  }
  /// The current entry cap (0 = unbounded).
  std::size_t maxEntries() const { return cache_.maxEntries(); }

 private:
  MemoCache<Entry> cache_;
};

}  // namespace nanoleak::engine
