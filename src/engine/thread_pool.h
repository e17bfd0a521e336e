/// @file
/// Fixed-size worker pool with a chunked, self-scheduling parallel-for.
///
/// Chunks of the index space are claimed dynamically from a shared counter
/// (work stealing off one queue), so uneven per-point cost - e.g. DC solves
/// that converge in different numbers of sweeps - balances automatically.
/// Which thread runs a chunk never affects results: callers write into
/// per-index slots and reduce them in index order afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nanoleak::engine {

/// Body of a parallel loop: processes indices [begin, end).
using ChunkBody = std::function<void(std::size_t begin, std::size_t end)>;

/// Worker pool executing chunked parallel loops (see file comment).
class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread;
  /// 0 picks std::thread::hardware_concurrency(). threads == 1 spawns no
  /// workers and runs every parallelFor inline.
  explicit ThreadPool(int threads = 0);
  /// Joins the workers; any in-flight parallelFor must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;             ///< non-copyable
  ThreadPool& operator=(const ThreadPool&) = delete;  ///< non-copyable

  /// Total concurrency (worker threads + the calling thread).
  int threadCount() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `body` over [0, count) partitioned into `chunk`-sized pieces.
  /// The caller participates; the call blocks until every chunk finished.
  /// Chunk boundaries depend only on (count, chunk), never on the thread
  /// count.
  ///
  /// A chunk that throws cancels the loop. Guaranteed:
  ///  - parallelFor rethrows the first exception the pool caught, after
  ///    every chunk that started has returned or thrown;
  ///  - no chunk runs twice, and once the pool has caught a throw no chunk
  ///    that is not yet claimed starts; the throwing thread in particular
  ///    starts no further chunk of the loop;
  ///  - run inline (one thread, or one chunk), no chunk after the throwing
  ///    one starts;
  ///  - the pool is reusable as soon as parallelFor returns.
  /// Other threads may claim chunks between the throw and the moment the
  /// pool catches it, and those chunks run, so how many chunks run in all
  /// is unspecified.
  void parallelFor(std::size_t count, std::size_t chunk,
                   const ChunkBody& body);

 private:
  struct Job;

  void workerLoop();
  /// Claims and runs chunks until the job is drained. `stolen` only
  /// labels the claims for metrics (worker vs. calling thread).
  static void runChunks(Job& job, bool stolen);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace nanoleak::engine
