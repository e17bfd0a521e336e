// The lookup protocol TableCache and PlanCache share, over a trivial value
// type: coalesced misses, deferred outcome accounting, erase-on-failure,
// the clear() token guard and LRU eviction of finished entries only.
#include "engine/memo_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "engine/thread_pool.h"
#include "util/error.h"

namespace nanoleak::engine {
namespace {

using Cache = MemoCache<std::string>;

/// A build returning `text`.
auto value(const std::string& text) {
  return [text] { return std::make_shared<const std::string>(text); };
}

/// A build that signals `entered`, waits for `release`, then returns
/// `text`: makes "a lookup joined an in-flight build" deterministic.
auto blockingValue(std::promise<void>& entered,
                   const std::shared_future<void>& release,
                   const std::string& text) {
  return [&entered, release, text] {
    entered.set_value();
    release.wait();
    return std::make_shared<const std::string>(text);
  };
}

/// Spins until a lookup has joined an in-flight build.
void waitForJoin(const Cache& cache, std::size_t waits = 1) {
  while (cache.stats().coalesced_waits < waits) {
    std::this_thread::yield();
  }
}

TEST(MemoCacheTest, ConcurrentMissesBuildOnce) {
  Cache cache("memo_cache_test");
  std::atomic<int> builds{0};
  ThreadPool pool(8);
  std::atomic<std::size_t> matches{0};
  pool.parallelFor(16, 1, [&](std::size_t, std::size_t) {
    const auto got = cache.get("k", [&] {
      builds.fetch_add(1);
      return std::make_shared<const std::string>("v");
    });
    if (*got == "v") matches.fetch_add(1);
  });
  EXPECT_EQ(matches.load(), 16u);
  EXPECT_EQ(builds.load(), 1);
  const Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 15u);
  EXPECT_EQ(stats.coalesced_waits, stats.coalesced_hits);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCacheTest, JoinedHitIsCountedWhenTheBuildResolves) {
  Cache cache("memo_cache_test");
  std::promise<void> entered;
  std::promise<void> release_build;
  const std::shared_future<void> release = release_build.get_future().share();

  std::thread owner(
      [&] { EXPECT_EQ(*cache.get("k", blockingValue(entered, release, "v")),
                      "v"); });
  entered.get_future().wait();
  // The miss is now provably in flight.
  std::thread joiner([&] { EXPECT_EQ(*cache.get("k", value("other")), "v"); });
  waitForJoin(cache);
  // The join is counted at once; the hit waits for the build's outcome.
  EXPECT_EQ(cache.stats().hits, 0u);
  release_build.set_value();
  owner.join();
  joiner.join();

  Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.coalesced_hits, 1u);
  EXPECT_EQ(stats.coalesced_waits, 1u);
  EXPECT_EQ(stats.coalesced_failures, 0u);

  // A lookup after completion is a plain (non-coalesced) hit.
  EXPECT_EQ(*cache.get("k", value("other")), "v");
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.coalesced_hits, 1u);
  EXPECT_EQ(stats.coalesced_waits, 1u);
}

TEST(MemoCacheTest, JoinedFailureIsNotAHitAndCanBeRetried) {
  // A waiter joining a build that throws rethrows the builder's error
  // and is counted as a coalesced failure, never a hit.
  Cache cache("memo_cache_test");
  std::promise<void> entered;
  std::promise<void> release_build;
  const std::shared_future<void> release = release_build.get_future().share();
  const auto failing = [&]() -> std::shared_ptr<const std::string> {
    entered.set_value();
    release.wait();
    throw Error("build blew up");
  };

  std::thread owner([&] { EXPECT_THROW(cache.get("k", failing), Error); });
  entered.get_future().wait();
  std::thread joiner(
      [&] { EXPECT_THROW(cache.get("k", value("unused")), Error); });
  waitForJoin(cache);
  release_build.set_value();
  owner.join();
  joiner.join();

  Cache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.coalesced_hits, 0u);
  EXPECT_EQ(stats.coalesced_waits, 1u);
  EXPECT_EQ(stats.coalesced_failures, 1u);
  // The failed entry was erased, so the key rebuilds.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(*cache.get("k", value("retried")), "retried");
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCacheTest, ClearDuringABuildDoesNotResurrectTheSlot) {
  // An owner resumed after clear() must leave the successor slot - a
  // later miss on the same key, still building - in flight: a lookup
  // after the first owner finishes joins the successor's build rather
  // than counting a hit on a value that does not exist yet.
  Cache cache("memo_cache_test");
  std::promise<void> first_entered;
  std::promise<void> release_first_build;
  const std::shared_future<void> release_first =
      release_first_build.get_future().share();
  std::promise<void> second_entered;
  std::promise<void> release_second_build;
  const std::shared_future<void> release_second =
      release_second_build.get_future().share();

  std::thread first([&] {
    EXPECT_EQ(*cache.get("k", blockingValue(first_entered, release_first,
                                            "first")),
              "first");
  });
  first_entered.get_future().wait();
  cache.clear();
  std::thread second([&] {
    EXPECT_EQ(*cache.get("k", blockingValue(second_entered, release_second,
                                            "second")),
              "second");
  });
  second_entered.get_future().wait();
  release_first_build.set_value();
  first.join();
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 1u);

  std::thread third(
      [&] { EXPECT_EQ(*cache.get("k", value("unused")), "second"); });
  while (cache.stats().coalesced_waits + cache.stats().hits == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(cache.stats().coalesced_waits, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  release_second_build.set_value();
  second.join();
  third.join();
  EXPECT_EQ(cache.stats().coalesced_hits, 1u);
  EXPECT_EQ(*cache.get("k", value("unused")), "second");
}

TEST(MemoCacheTest, LruEvictionDropsTheColdestEntry) {
  Cache cache("memo_cache_test", 2);
  EXPECT_EQ(cache.maxEntries(), 2u);
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<const std::string>("v");
  };
  cache.get("a", build);
  cache.get("b", build);
  cache.get("a", build);  // touch a
  cache.get("c", build);  // evicts b (coldest)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.get("a", build);
  EXPECT_EQ(builds, 3);  // a survived
  cache.get("b", build);
  EXPECT_EQ(builds, 4);  // b was rebuilt

  // Shrinking the cap evicts at once.
  cache.setMaxEntries(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(MemoCacheTest, InFlightEntriesAreNeverEvicted) {
  Cache cache("memo_cache_test", 1);
  std::promise<void> entered;
  std::promise<void> release_build;
  const std::shared_future<void> release = release_build.get_future().share();
  std::thread slow(
      [&] { cache.get("slow", blockingValue(entered, release, "v")); });
  entered.get_future().wait();

  // A second key lands while the first is still building: the cap of one
  // may only be enforced against finished entries, so the in-flight build
  // survives and the cache transiently holds both.
  cache.get("fast", value("v"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  release_build.set_value();
  slow.join();
  // Both are finished now, so the cap can be enforced.
  cache.setMaxEntries(1);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace nanoleak::engine
