#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.h"

namespace nanoleak::engine {
namespace {

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3},
                              std::size_t{16}, std::size_t{1000}}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> visits(257);
      pool.parallelFor(visits.size(), chunk,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                         }
                       });
      for (std::size_t i = 0; i < visits.size(); ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "index " << i << " threads " << threads << " chunk " << chunk;
      }
    }
  }
}

TEST(ThreadPoolTest, ThreadCountIncludesCaller) {
  EXPECT_EQ(ThreadPool(1).threadCount(), 1);
  EXPECT_EQ(ThreadPool(4).threadCount(), 4);
  EXPECT_GE(ThreadPool(0).threadCount(), 1);
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallelFor(0, 8, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ZeroChunkBehavesAsOne) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallelFor(10, 0, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(end, begin + 1);  // chunk clamped to 1
    sum.fetch_add(begin);
  });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> visited{0};
    pool.parallelFor(round + 1, 2, [&](std::size_t begin, std::size_t end) {
      visited.fetch_add(end - begin);
    });
    EXPECT_EQ(visited.load(), static_cast<std::size_t>(round + 1));
  }
}

TEST(ThreadPoolTest, RethrowsFirstChunkException) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallelFor(100, 1,
                         [&](std::size_t begin, std::size_t) {
                           if (begin == 37) {
                             throw std::runtime_error("chunk 37 failed");
                           }
                         }),
        std::runtime_error);
    // The pool must stay usable after a failed loop.
    std::atomic<std::size_t> visited{0};
    pool.parallelFor(16, 2, [&](std::size_t begin, std::size_t end) {
      visited.fetch_add(end - begin);
    });
    EXPECT_EQ(visited.load(), 16u);
  }
}

TEST(ThreadPoolTest, RejectsEmptyBody) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallelFor(4, 1, ChunkBody{}), Error);
}

TEST(ThreadPoolTest, CancellationSkipsUnclaimedChunks) {
  // Checks exactly what parallelFor guarantees after a chunk throws on
  // the parallel path (see thread_pool.h; InlinePathStopsAtTheThrowingChunk
  // covers the inline path). How many chunks other threads start before
  // the pool catches the throw is unspecified, so it is not checked.
  constexpr int kThreads = 4;
  constexpr std::size_t kChunks = 1000;
  constexpr std::size_t kThrowing = 3;
  ThreadPool pool(kThreads);
  std::vector<std::atomic<int>> runs(kChunks);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> threw{false};
  std::atomic<bool> thrower_started_again{false};
  std::thread::id thrower;  // written before `threw` is set

  EXPECT_THROW(
      pool.parallelFor(
          kChunks, 1,
          [&](std::size_t begin, std::size_t) {
            if (threw.load() && std::this_thread::get_id() == thrower) {
              thrower_started_again.store(true);
            }
            started.fetch_add(1);
            runs[begin].fetch_add(1);
            if (begin == kThrowing) {
              // Let the other threads claim chunks meanwhile, so the
              // throw races real claims.
              while (started.load() < kThreads) {
                std::this_thread::yield();
              }
              thrower = std::this_thread::get_id();
              threw.store(true);
              finished.fetch_add(1);
              throw std::runtime_error("cancel the rest");
            }
            finished.fetch_add(1);
          }),
      std::runtime_error);

  // Every started chunk finished before parallelFor rethrew.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_FALSE(thrower_started_again.load());
  for (std::size_t i = 0; i < kChunks; ++i) {
    EXPECT_LE(runs[i].load(), 1) << "chunk " << i;
  }

  // The cancelled job left no residue: the next loop visits every index.
  std::atomic<std::size_t> visited{0};
  pool.parallelFor(64, 3, [&](std::size_t begin, std::size_t end) {
    visited.fetch_add(end - begin);
  });
  EXPECT_EQ(visited.load(), 64u);
}

TEST(ThreadPoolTest, ConcurrentPoolsFailIndependently) {
  // Serve-style concurrency: every executor thread owns its own pool
  // (ThreadPool admits one controller at a time), and one executor's
  // failing workload must neither poison nor stall its neighbours.
  constexpr int kOwners = 4;
  std::vector<std::thread> owners;
  std::vector<std::size_t> sums(kOwners, 0);
  // char, not bool: std::vector<bool> packs the owners' flags into one
  // word, and concurrent writes to it race.
  std::vector<char> threw(kOwners, 0);
  for (int i = 0; i < kOwners; ++i) {
    owners.emplace_back([&, i] {
      ThreadPool pool(2);
      for (int round = 0; round < 3; ++round) {
        const bool failing_round = (i % 2 == 0) && round == 1;
        std::atomic<std::size_t> sum{0};
        try {
          pool.parallelFor(100, 4, [&](std::size_t begin, std::size_t end) {
            if (failing_round && begin == 48) {
              throw Error("executor workload failed");
            }
            for (std::size_t k = begin; k < end; ++k) {
              sum.fetch_add(k);
            }
          });
          sums[i] += sum.load();
        } catch (const Error&) {
          threw[i] = 1;
        }
      }
    });
  }
  for (std::thread& owner : owners) {
    owner.join();
  }
  for (int i = 0; i < kOwners; ++i) {
    EXPECT_EQ(threw[i] != 0, i % 2 == 0) << "owner " << i;
    // Two clean rounds of sum 0..99 always complete, even next to
    // failing neighbours.
    EXPECT_GE(sums[i], 2u * 4950u) << "owner " << i;
  }
}

TEST(ThreadPoolTest, InlinePathStopsAtTheThrowingChunk) {
  // threads == 1 runs the inline fast path: the exception propagates
  // immediately and later chunks never run.
  ThreadPool pool(1);
  std::size_t executed = 0;
  EXPECT_THROW(pool.parallelFor(100, 1,
                                [&](std::size_t begin, std::size_t) {
                                  ++executed;
                                  if (begin == 37) {
                                    throw std::runtime_error("stop");
                                  }
                                }),
               std::runtime_error);
  EXPECT_EQ(executed, 38u);  // chunks 0..37 inclusive, nothing after
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  // Record the (begin, end) pairs seen at each thread count; the sets must
  // match because reductions key off chunk identity.
  auto boundaries = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> seen(15);
    pool.parallelFor(100, 7, [&](std::size_t begin, std::size_t end) {
      seen[begin / 7] = {begin, end};
    });
    return seen;
  };
  const auto one = boundaries(1);
  EXPECT_EQ(one, boundaries(2));
  EXPECT_EQ(one, boundaries(8));
  EXPECT_EQ(one.back(), (std::pair<std::size_t, std::size_t>{98, 100}));
}

}  // namespace
}  // namespace nanoleak::engine
