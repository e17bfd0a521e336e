// `serve`: a closed loop against the daemon.
//
// One process holds an in-process serve::Server on a Unix socket and one
// client connection per CPU; each client sends its next request only
// after the previous reply, as `nanoleak client` and ServeClient::call do.
// The seeded request stream mixes plan-cache hits on a warmed hot set
// with a fixed share of never-seen corners (misses, characterization,
// LRU eviction). Only here do the `serve` and `scenario` layers work.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/batch_runner.h"
#include "engine/plan_cache.h"
#include "engine/table_cache.h"
#include "inputs.h"
#include "scenario/golden_file.h"
#include "scenario/runner.h"
#include "scenario/serve_protocol.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace nanoleak;

/// The request with its id cleared, canonically encoded: equal keys mean
/// equal work, so their ok payloads must be byte-identical.
std::string requestKey(const scenario::ServeRequest& request) {
  scenario::ServeRequest keyed = request;
  keyed.id.clear();
  return scenario::encodeRequest(keyed);
}

/// What the daemon must answer for `request`: serializeSuite of an
/// in-process runScenario of the request as the daemon decodes it.
std::string expectedPayload(const scenario::ServeRequest& request,
                            engine::BatchRunner& runner) {
  const scenario::ServeRequest decoded =
      scenario::decodeRequest(scenario::encodeRequest(request));
  scenario::SuiteResult suite;
  suite.suite = decoded.scenario.name;
  suite.scenarios.push_back(scenario::runScenario(decoded.scenario, runner));
  return scenario::serializeSuite(suite);
}

/// What one client thread saw.
struct ClientLog {
  Samples latency;
  /// Completion times since the start of the run [s].
  std::vector<double> done_at;
  /// Request key -> (ok payload, requests with that key).
  std::map<std::string, std::pair<std::string, std::uint64_t>> payloads;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t novel = 0;
  std::vector<std::string> failures;
};

class Serve : public Workload {
 public:
  explicit Serve(const RunConfig& config) : config_(config) {}
  ~Serve() override { stop(); }

  void setup() override {
    stop();
    socket_path_ = config_.work_dir + "/serve-" + std::to_string(::getpid()) +
                   "-" + std::to_string(setups_++) + ".sock";
    server_ = startWarmDaemon(config_.cpus, socket_path_);
    streams_.clear();
    for (int c = 0; c < config_.cpus; ++c) {
      clients_.push_back(
          serve::ServeClient::connectUnix(socket_path_, clientOptions()));
      streams_.emplace_back(config_.seed, c, config_.cpus);
    }
  }

  PhaseTimes run(double seconds, Tracer& tracer, Result& result) override {
    std::vector<ClientLog> logs(clients_.size());
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        clientLoop(clients_[c], streams_[c], tracer, start, seconds, logs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = secondsSince(start);

    PhaseTimes times;
    std::vector<double> done_at;
    for (ClientLog& log : logs) {
      result.attempt(log.attempted);
      for (const std::string& why : log.failures) result.fail(why);
      for (double v : log.done_at) done_at.push_back(v);
      for (const auto& [key, seen] : log.payloads) {
        auto [it, inserted] = payloads_.try_emplace(key, seen);
        if (!inserted) {
          it->second.second += seen.second;
          if (it->second.first != seen.first) {
            result.fail("serve: two payloads for one request: " + key);
          }
        }
      }
      ok_ += log.ok;
      novel_ += log.novel;
      latency_.addAll(log.latency);
      times.ops.addAll(log.latency);
    }
    elapsed_ += elapsed;
    // A round is the time the daemon takes to answer one never-seen-corner
    // period of every client's stream, so each round holds about the same
    // mix of hits and misses.
    const std::size_t round_requests =
        RequestStream::kNovelEvery * clients_.size();
    std::sort(done_at.begin(), done_at.end());
    double previous = 0.0;
    for (std::size_t i = round_requests; i <= done_at.size();
         i += round_requests) {
      times.rounds.add(done_at[i - 1] - previous);
      previous = done_at[i - 1];
    }
    if (times.rounds.size() == 0) times.rounds.add(elapsed);
    return times;
  }

  void finish(Result& result) override {
    verifyPayloads(result);
    Result::report("req_per_s", "req/s", double(ok_) / elapsed_,
                   latency_.size());
    Result::report("latency_p50_ms / tail", "ms", latency_, 1e3);
    Result::report("latency_p99_ms", "ms", latency_.percentile(99.0) * 1e3,
                   latency_.size());
    Result::report("never-seen corners", "requests", double(novel_),
                   latency_.size());
    const engine::PlanCache::Stats plans = server_->planCache()->stats();
    Result::report("plan_cache hits/lookups", "ratio",
                   double(plans.hits) / double(plans.hits + plans.misses),
                   plans.hits + plans.misses);
    Result::report("plan_cache evictions", "count", double(plans.evictions),
                   plans.hits + plans.misses);
  }

 private:
  void clientLoop(serve::ServeClient& client, RequestStream& stream,
                  Tracer& tracer, Clock::time_point start, double seconds,
                  ClientLog& log) {
    static std::atomic<std::uint64_t> next_request{1};
    do {
      const scenario::ServeRequest request = stream.next();
      const std::uint64_t request_id = next_request++;
      ++log.attempted;
      log.novel += stream.lastWasNovel() ? 1 : 0;
      scenario::ServeResponse response;
      std::string transport_error;
      const double latency = tracer.time(
          "serve.ServeClient::call",
          [&] {
            try {
              response = client.call(request);
            } catch (const std::exception& e) {
              transport_error = e.what();
            }
          },
          request_id);
      log.done_at.push_back(secondsSince(start));
      if (!transport_error.empty() ||
          response.status != scenario::ServeStatus::kOk) {
        // Failed requests miss every latency percentile.
        log.latency.add(std::numeric_limits<double>::infinity());
        log.failures.push_back(
            "serve: request " + request.id + " failed: " +
            (transport_error.empty()
                 ? std::string(toString(response.status)) + " " +
                       response.message
                 : transport_error));
        continue;  // to the loop condition
      }
      ++log.ok;
      log.latency.add(latency);
      auto [it, inserted] = log.payloads.try_emplace(
          requestKey(request), std::pair{response.payload, 0});
      ++it->second.second;
      if (!inserted && it->second.first != response.payload) {
        log.failures.push_back("serve: two payloads for request " +
                               request.id);
      }
    } while (secondsSince(start) < seconds);
  }

  /// Every ok payload must equal an in-process run of its request; each
  /// distinct request is replayed once, spread over the CPUs.
  void verifyPayloads(Result& result) {
    std::vector<const std::pair<const std::string,
                                std::pair<std::string, std::uint64_t>>*>
        entries;
    for (const auto& entry : payloads_) entries.push_back(&entry);
    auto tables = std::make_shared<engine::TableCache>();
    std::vector<std::string> mismatch(entries.size());
    forEachOnThreads(config_.cpus, entries.size(), [&](std::size_t i, int) {
      const auto& [key, seen] = *entries[i];
      engine::BatchRunner runner(
          engine::BatchOptions{.threads = 1, .cache = tables});
      try {
        if (expectedPayload(scenario::decodeRequest(key), runner) !=
            seen.first) {
          mismatch[i] = "differs from an in-process run";
        }
      } catch (const std::exception& e) {
        mismatch[i] = std::string("replay threw: ") + e.what();
      }
    });
    // Every request that received a wrong payload counts as failed.
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& [key, seen] = *entries[i];
      for (std::uint64_t k = 0; !mismatch[i].empty() && k < seen.second; ++k) {
        result.fail("serve: payload " + mismatch[i] + ": " + key);
      }
    }
    Result::report("payloads replayed", "requests", double(entries.size()),
                   entries.size());
  }

  void stop() {
    clients_.clear();
    if (server_) {
      server_->requestShutdown();
      server_->wait();
      server_.reset();
      std::error_code ignored;
      std::filesystem::remove(socket_path_, ignored);
    }
  }

  const RunConfig config_;
  int setups_ = 0;
  std::string socket_path_;
  std::unique_ptr<serve::Server> server_;
  std::vector<serve::ServeClient> clients_;
  std::vector<RequestStream> streams_;

  std::map<std::string, std::pair<std::string, std::uint64_t>> payloads_;
  Samples latency_;
  std::uint64_t ok_ = 0;
  std::uint64_t novel_ = 0;
  double elapsed_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> makeServe(const RunConfig& config) {
  return std::make_unique<Serve>(config);
}

}  // namespace perfbench
