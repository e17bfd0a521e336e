// Shared pieces of the nanoleak benchmark binary: clocks, sample
// statistics, the in-memory span tracer, the run result, and the
// interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPUs this process may run on (its affinity mask), at least 1. Every
/// thread, connection and executor budget of the workloads derives from
/// it.
int availableCpus();

/// Peak resident set size of this process so far [MiB].
double peakRssMb();

/// One operation run on a worker thread: its time, and why it failed
/// (empty = it passed its check).
struct Outcome {
  double seconds = 0.0;
  std::string failure;
};

/// Runs fn(i, t) for every i in [0, count) on `threads` threads and waits
/// for them. Thread t takes i = t, t + threads, ..., so which thread runs
/// an index never depends on timing. fn must not throw.
template <typename F>
void forEachOnThreads(int threads, std::size_t count, F&& fn) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&fn, threads, count, t] {
      for (std::size_t i = std::size_t(t); i < count;
           i += std::size_t(threads)) {
        fn(i, t);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

/// Timing (or other) samples with order statistics.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void addAll(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  double sum() const;
  double mean() const;
  /// Nearest-rank percentile, q in (0, 100]; 0 when empty.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }
  /// The highest of p90 / p99 / p99.9 with at least ten samples beyond
  /// it (0 when even p90 has fewer).
  double tailPercentile() const;

 private:
  std::vector<double> values_;
};

/// One recorded span: a call from the benchmark into one layer.
struct Span {
  std::uint64_t id = 0;
  /// Enclosing span on the same thread (0 = none).
  std::uint64_t parent = 0;
  /// Shared by every span of one serve request (0 = not a request).
  std::uint64_t request = 0;
  /// "<layer>.<call>", e.g. "core.estimate".
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int thread = 0;
};

/// Times calls into the program. When enabled it also records a span per
/// call, kept in memory until write(); a disabled tracer only times.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Runs `fn` and returns its wall time [s]; records a span named
  /// `name` (a string literal) when enabled. Thread-safe.
  template <typename F>
  double time(const char* name, F&& fn, std::uint64_t request = 0) {
    if (!enabled_) {
      const Clock::time_point start = Clock::now();
      fn();
      return secondsSince(start);
    }
    const std::uint64_t id = open();
    const Clock::time_point start = Clock::now();
    try {
      fn();
    } catch (...) {
      close(id, name, request, start, Clock::now());
      throw;
    }
    const Clock::time_point stop = Clock::now();
    close(id, name, request, start, stop);
    return std::chrono::duration<double>(stop - start).count();
  }

  /// Every recorded span (call after the recording threads joined).
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer [s]: each span's duration minus the part its
  /// child spans cover, summed by the name's layer prefix.
  std::map<std::string, double> layerSelfSeconds() const;
  /// Writes the spans as Chrome trace events (Perfetto-readable); false
  /// when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::uint64_t open();
  void close(std::uint64_t id, const char* name, std::uint64_t request,
             Clock::time_point start, Clock::time_point stop);

  const bool enabled_;
  const Clock::time_point origin_;
  std::mutex mutex_;  // guards spans_, next_id_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// What a run reports: operation accounting, metrics, and the
/// human-readable lines printed above the JSON result.
class Result {
 public:
  /// Counts `n` attempted operations.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation (an exception, a non-ok response or an
  /// output mismatch) and logs why to stderr.
  void fail(const std::string& why);
  /// fail(what) unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  /// Sets a metric of the JSON result.
  void set(const std::string& name, double value, const std::string& unit);
  /// Prints one report line: a timing (or other sample set) scaled to
  /// `unit`, with median, tail percentile and sample count.
  static void report(const std::string& name, const std::string& unit,
                     const Samples& samples, double scale);
  /// Prints one report line for a single derived value.
  static void report(const std::string& name, const std::string& unit,
                     double value, std::size_t count);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The one-line JSON result.
  std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Inputs every workload derives from.
struct RunConfig {
  std::uint64_t seed = 1;
  /// CPUs available: engine threads, client connections and
  /// executors x engine threads each stay within it.
  int cpus = 1;
  /// Scratch directory inside the checkout (sockets, trace output).
  std::string work_dir;
};

/// Per-phase timings of one timed run of a workload.
struct PhaseTimes {
  /// Latency of every operation: one call into the program, or one
  /// served request [s].
  Samples ops;
  /// Time of every complete round of the workload's fixed operation mix
  /// [s].
  Samples rounds;
};

/// A seeded workload. setup() builds every input and warms what later
/// operations reuse; run() executes whole rounds of the workload's fixed
/// operation mix, checking outputs outside the timed calls.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds all inputs from the seed; called several times to time
  /// set-up, the state of the last call is kept.
  virtual void setup() = 0;
  /// Runs rounds until at least `seconds` of operations were timed (at
  /// least one round).
  virtual PhaseTimes run(double seconds, Tracer& tracer, Result& result) = 0;
  /// Checks that need the whole run; prints the workload's own numbers.
  virtual void finish(Result& result) = 0;
};

std::unique_ptr<Workload> makeSweep(const RunConfig& config);
std::unique_ptr<Workload> makeSignoff(const RunConfig& config);
std::unique_ptr<Workload> makeServe(const RunConfig& config);

/// The traced run's per-layer measurements: replays seeded inputs
/// through each layer's public functions under `tracer` and sets every
/// per-layer metric on `result` (see BENCHMARK.json).
void runLayerProbe(const RunConfig& config, Tracer& tracer, Result& result);

}  // namespace perfbench
