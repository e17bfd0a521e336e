/// @file
/// Batch runner: executes sweep jobs over the thread pool.
///
/// One determinism rule: every parallel loop writes index-addressed result
/// slots, and every reduction then runs once, in index order, on the
/// calling thread - so every result is bit-identical whether the sweep ran
/// on 1 thread or 16. cache() exposes a TableCache for workloads that need
/// characterized tables (runPatterns libraries, repeated corners): entries
/// are immutable and shared, so workers read them without
/// synchronization. Pattern sweeps follow the same shape one level up: one
/// immutable core::EstimationPlan shared by every worker, one
/// core::EstimationWorkspace per thread (see runPatterns).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/estimation_plan.h"
#include "engine/sweep.h"
#include "engine/table_cache.h"
#include "engine/thread_pool.h"
#include "mc/monte_carlo.h"

namespace nanoleak::engine {

/// Concurrency and chunking configuration of a BatchRunner.
struct BatchOptions {
  /// Total concurrency including the calling thread; 0 = hardware.
  int threads = 0;
  /// Input patterns per work chunk in runPatterns. A chunk whose
  /// consecutive patterns differ in many bits (core::favoursBlocks) is
  /// evaluated core::kBlockPatterns at a time by the plan's block kernel;
  /// any other chunk, such as a 1-bit walk, walks its patterns through the
  /// incremental delta path. Both are bit-identical to full evaluation, so
  /// chunking never affects results.
  std::size_t pattern_chunk = 32;
  /// Characterization cache this runner records into. Null (the default)
  /// gives the runner a private cache - the historical behaviour. A
  /// non-null cache is shared: several runners (e.g. the serve daemon's
  /// per-executor runners) then memoize corners jointly, which is safe
  /// because TableCache is fully thread-safe and its entries immutable.
  std::shared_ptr<TableCache> cache = nullptr;
};

/// Everything a Monte-Carlo sweep produces: the per-sample population (in
/// sample order) and its Fig. 11 summary.
struct McBatchResult {
  /// Per-sample paired decompositions, in sample order.
  std::vector<mc::McSample> samples;
  /// Fig. 11 mean/sigma/max-shift summary, reduced in sample order.
  mc::McSummary summary;
};

/// Executes the typed sweep jobs of sweep.h (and shared-plan pattern
/// sweeps) over one thread pool + table cache (see file comment).
class BatchRunner {
 public:
  /// Builds the pool (options.threads) and adopts options.cache (or
  /// creates a private empty cache when options.cache is null).
  explicit BatchRunner(BatchOptions options = {});

  /// The configuration the runner was built with.
  const BatchOptions& options() const { return options_; }
  /// The underlying pool, for custom parallelFor workloads.
  ThreadPool& pool() { return pool_; }
  /// The characterization cache shared by this runner's workloads.
  TableCache& cache() { return *cache_; }

  /// Fig. 7 job: one task per input vector (each task owns its
  /// LoadingAnalyzer and sweeps the loading grid sequentially). Results
  /// ordered like sweep.vectors (or vectorIndex order when empty).
  std::vector<GateVectorResult> run(const GateVectorSweep& sweep);

  /// Fig. 8/9 job: one task per (technology, temperature) corner, ordered
  /// technology-major.
  std::vector<CornerResult> run(const CornerSweep& sweep);

  /// Fig. 10/11 job: counter-seeded Monte-Carlo population, sample i =
  /// runSample(sweep.seed, i).
  McBatchResult run(const McSweep& sweep);

  /// Fig. 12 vector-sweep shape: estimates every input pattern against one
  /// shared immutable EstimationPlan. Each worker draws an
  /// EstimationWorkspace from a small pool (at most one per thread in
  /// steady state) and runs its chunk through the plan's block kernel
  /// (estimateBlock) when the chunk's patterns are far apart, or walks it
  /// through the incremental delta path when they are close (see
  /// BatchOptions::pattern_chunk); results are bit-identical to
  /// plan.estimate() per pattern at any thread count. The plan must
  /// outlive the call.
  std::vector<core::EstimateResult> runPatterns(
      const core::EstimationPlan& plan,
      const std::vector<std::vector<bool>>& patterns);

  /// runPatterns() for callers that read only each pattern's total: the
  /// same chunks, workspace pool and path choice, without writing per-gate
  /// results. Element i is bit-identical to runPatterns()[i].total at any
  /// thread count.
  std::vector<device::LeakageBreakdown> runPatternTotals(
      const core::EstimationPlan& plan,
      const std::vector<std::vector<bool>>& patterns);

  /// Deterministic parallel map over [0, count): out[i] = fn(i), one task
  /// per index. The building block the typed sweeps are written with.
  template <typename T>
  std::vector<T> map(std::size_t count,
                     const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(count);
    pool_.parallelFor(count, /*chunk=*/1,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          out[i] = fn(i);
                        }
                      });
    return out;
  }

 private:
  /// The pattern-sweep loop shared by runPatterns() and runPatternTotals():
  /// pattern_chunk indices per chunk, each chunk on one workspace drawn
  /// from a per-call pool. A chunk whose patterns core::favoursBlocks()
  /// goes to block(begin, end, ws) in runs of at most core::kBlockPatterns,
  /// any other to walk(i, ws) one index at a time.
  void forEachPattern(
      const core::EstimationPlan& plan,
      const std::vector<std::vector<bool>>& patterns,
      const std::function<void(std::size_t, std::size_t,
                               core::EstimationWorkspace&)>& block,
      const std::function<void(std::size_t, core::EstimationWorkspace&)>&
          walk);

  BatchOptions options_;
  std::shared_ptr<TableCache> cache_;
  ThreadPool pool_;
};

}  // namespace nanoleak::engine
