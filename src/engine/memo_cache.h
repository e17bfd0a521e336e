/// @file
/// The memoizing cache behind TableCache and PlanCache: a thread-safe
/// string-key -> shared immutable value map with coalesced misses and
/// LRU capacity eviction. Each of those classes supplies a key format and
/// a builder; this template owns the protocol.
///
/// Protocol (pinned by tests/engine/memo_cache_test.cpp):
///  - A key's hash is computed once per lookup and stored with it, so
///    probing never re-hashes the (long) fingerprint.
///  - A miss owner builds outside the lock; concurrent callers for the
///    same key join its shared future instead of building again.
///  - A hit on a finished entry is counted at once. A joiner is counted
///    in coalesced_waits when it joins, and as a coalesced hit or
///    coalesced failure only when the build resolves.
///  - A failed build erases its own entry (matched by token), so a later
///    call rebuilds; an owner resumed after clear() never marks the
///    successor entry ready.
///  - Eviction drops the least-recently-used finished entry by an O(n)
///    min-scan: caches hold tens to hundreds of entries and eviction only
///    runs on misses past the cap, so the scan is cheaper than keeping
///    list iterators valid across unordered_map rehashes. In-flight
///    builds are never evicted.
///
/// Values are handed out as shared_ptr-to-const: eviction and clear()
/// drop only the cache's reference, never a caller's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace nanoleak::engine {

/// Memoizing key -> value cache (see file comment).
template <typename V>
class MemoCache {
 public:
  /// Lookup counters (monotonic since construction).
  struct Stats {
    /// Lookups served from an existing entry (including coalesced hits).
    std::size_t hits = 0;
    /// Lookups that ran a build.
    std::size_t misses = 0;
    /// Hits that joined a build still in flight and received its value;
    /// subset of `hits`.
    std::size_t coalesced_hits = 0;
    /// Waiters that joined an in-flight build whose builder threw; they
    /// rethrow the builder's exception and are never counted in `hits`.
    std::size_t coalesced_failures = 0;
    /// Lookups that joined an in-flight build, counted at join time -
    /// before the outcome is known. Once every joined build resolves,
    /// coalesced_waits == coalesced_hits + coalesced_failures; a gap
    /// means waiters are still blocked, which is what makes coalescing
    /// tests deterministic.
    std::size_t coalesced_waits = 0;
    /// Finished entries dropped by LRU capacity enforcement.
    std::size_t evictions = 0;
  };

  /// Cache holding at most `max_entries` finished values (0 =
  /// unbounded) whose counters are mirrored into the process-wide
  /// metrics `<metric_prefix>.hits`, `.misses`, `.coalesced_hits`,
  /// `.coalesced_failures`, `.evictions` and the `.entries` gauge.
  explicit MemoCache(std::string_view metric_prefix,
                     std::size_t max_entries = 0)
      : metrics_(std::string(metric_prefix)), max_entries_(max_entries) {}
  /// Drops every entry; the `.entries` gauge reads 0, as after clear(),
  /// so a call-local cache leaves no live entries behind in the metrics.
  ~MemoCache() { metrics_.entries.set(0.0); }
  /// Not copyable: the entries and counters belong to one cache.
  MemoCache(const MemoCache&) = delete;
  /// Not assignable, as above.
  MemoCache& operator=(const MemoCache&) = delete;

  /// The value for `key`, running `build()` (which returns a
  /// std::shared_ptr<const V>) on a miss. Concurrent callers with the
  /// same key coalesce on one build; if it throws, every joined caller
  /// rethrows the builder's exception and the entry is removed so a
  /// later call can retry.
  template <typename Build>
  std::shared_ptr<const V> get(std::string key, const Build& build) {
    const Key map_key(std::move(key));

    std::promise<Value> promise;
    std::shared_future<Value> future;
    bool owner = false;
    bool joined_in_flight = false;
    std::uint64_t token = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = slots_.find(map_key);
      if (it != slots_.end()) {
        it->second.last_use = ++use_tick_;
        if (it->second.ready) {
          // A finished slot cannot fail below: count the hit now.
          ++stats_.hits;
          metrics_.hits.increment();
        } else {
          // Joining an in-flight build: hit vs failure is decided by how
          // the owner's build resolves, so outcome counting waits for
          // future.get(). Only the join itself is recorded now.
          joined_in_flight = true;
          ++stats_.coalesced_waits;
        }
        future = it->second.future;
      } else {
        ++stats_.misses;
        metrics_.misses.increment();
        owner = true;
        token = ++next_token_;
        future = promise.get_future().share();
        slots_.emplace(map_key,
                       Slot{future, /*ready=*/false, token, ++use_tick_});
        evictLocked();
        metrics_.entries.set(static_cast<double>(slots_.size()));
      }
    }

    if (owner) {
      try {
        promise.set_value(build());
        std::lock_guard<std::mutex> lock(mutex_);
        // The slot may be gone (clear()) or replaced by a successor miss;
        // only this owner's own slot is marked ready.
        const auto it = slots_.find(map_key);
        if (it != slots_.end() && it->second.token == token) {
          it->second.ready = true;
        }
      } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(map_key);
        if (it != slots_.end() && it->second.token == token) {
          slots_.erase(it);  // allow a later retry
          metrics_.entries.set(static_cast<double>(slots_.size()));
        }
        throw;
      }
    }
    if (joined_in_flight) {
      try {
        Value value = future.get();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.hits;
        ++stats_.coalesced_hits;
        metrics_.hits.increment();
        metrics_.coalesced_hits.increment();
        return value;
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.coalesced_failures;
        }
        metrics_.coalesced_failures.increment();
        throw;
      }
    }
    return future.get();
  }

  /// Snapshot of the lookup counters.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  /// Number of entries (including in-flight builds).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }
  /// Drops every entry; stats are kept. In-flight builds finish safely.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    metrics_.entries.set(0.0);
  }
  /// Caps the entry count: whenever the cache exceeds `max_entries`, the
  /// least-recently-used finished entries are dropped until it fits (the
  /// cache may transiently exceed the cap while builds overlap). 0 means
  /// unbounded. Shrinking the cap evicts immediately.
  void setMaxEntries(std::size_t max_entries) {
    std::lock_guard<std::mutex> lock(mutex_);
    max_entries_ = max_entries;
    evictLocked();
    metrics_.entries.set(static_cast<double>(slots_.size()));
  }
  /// The current entry cap (0 = unbounded).
  std::size_t maxEntries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_entries_;
  }

 private:
  using Value = std::shared_ptr<const V>;

  /// Key with its hash precomputed once at construction.
  struct Key {
    std::string text;
    std::size_t hash;

    explicit Key(std::string text_in)
        : text(std::move(text_in)), hash(std::hash<std::string>{}(text)) {}

    bool operator==(const Key& other) const {
      return hash == other.hash && text == other.text;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept { return key.hash; }
  };
  struct Slot {
    /// Resolves to the built value (or the builder's exception).
    std::shared_future<Value> future;
    /// False while the miss owner is still building; flipped under the
    /// mutex once the value is ready.
    bool ready = false;
    /// Identifies the miss that created this slot.
    std::uint64_t token = 0;
    /// Recency stamp; the LRU victim is the ready slot with the smallest.
    std::uint64_t last_use = 0;
  };
  /// Process-wide mirror of Stats, resolved once per cache.
  struct Metrics {
    explicit Metrics(const std::string& prefix)
        : hits(obs::counter(prefix + ".hits")),
          misses(obs::counter(prefix + ".misses")),
          coalesced_hits(obs::counter(prefix + ".coalesced_hits")),
          coalesced_failures(obs::counter(prefix + ".coalesced_failures")),
          evictions(obs::counter(prefix + ".evictions")),
          entries(obs::gauge(prefix + ".entries")) {}
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter coalesced_hits;
    obs::Counter coalesced_failures;
    obs::Counter evictions;
    obs::Gauge entries;
  };

  /// Drops least-recently-used ready slots until the cache fits
  /// max_entries_ (or only in-flight slots remain). Caller holds mutex_.
  void evictLocked() {
    if (max_entries_ == 0) {
      return;
    }
    while (slots_.size() > max_entries_) {
      auto victim = slots_.end();
      for (auto it = slots_.begin(); it != slots_.end(); ++it) {
        if (!it->second.ready) {
          continue;  // never evict an in-flight build
        }
        if (victim == slots_.end() ||
            it->second.last_use < victim->second.last_use) {
          victim = it;
        }
      }
      if (victim == slots_.end()) {
        return;  // only in-flight builds left; transiently over the cap
      }
      slots_.erase(victim);
      ++stats_.evictions;
      metrics_.evictions.increment();
    }
  }

  const Metrics metrics_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Slot, KeyHash> slots_;
  Stats stats_;
  std::uint64_t next_token_ = 0;
  std::uint64_t use_tick_ = 0;
  std::size_t max_entries_ = 0;
};

}  // namespace nanoleak::engine
