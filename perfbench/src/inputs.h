// Seeded inputs and output comparisons shared by the workloads and the
// layer probe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/estimation_plan.h"
#include "logic/generators.h"
#include "logic/logic_netlist.h"
#include "logic/logic_sim.h"
#include "scenario/serve_protocol.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {

/// `count` uniform random source patterns of width `bits`.
inline std::vector<std::vector<bool>> randomPatterns(std::size_t count,
                                                     std::size_t bits,
                                                     nanoleak::Rng& rng) {
  std::vector<std::vector<bool>> patterns;
  patterns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    patterns.push_back(nanoleak::logic::randomPattern(bits, rng));
  }
  return patterns;
}

/// An s13207-shaped synthetic scaled to 100k gates: its estimation plan
/// and workspace outgrow a per-core L2 cache, unlike the Fig. 12 roster's.
nanoleak::logic::SyntheticSpec largeSyntheticSpec();

/// Every gate kind the netlists' estimation libraries need, each once.
std::vector<nanoleak::gates::GateKind> estimationKindsOf(
    const std::vector<const nanoleak::logic::LogicNetlist*>& netlists);

/// Bit-for-bit equality of two estimates (totals and every gate).
bool sameEstimate(const nanoleak::core::EstimateResult& a,
                  const nanoleak::core::EstimateResult& b);

/// The serve workload's request mix. Most requests hit a hot set of
/// (circuit, corner) keys warmed at set-up; every kNovelEvery-th request
/// of a client names a corner never seen before in the run, so plan-cache
/// misses, characterization and LRU eviction keep running throughout.
class RequestStream {
 public:
  /// One request in this many names a never-seen corner.
  static constexpr std::uint64_t kNovelEvery = 128;

  /// Client `client` of `clients`, all inputs derived from `seed`.
  RequestStream(std::uint64_t seed, int client, int clients);

  /// The client's next request (deterministic sequence).
  nanoleak::scenario::ServeRequest next();
  /// Whether the last next() named a never-seen corner.
  bool lastWasNovel() const { return last_novel_; }

  /// One request per hot key: what set-up sends to warm the daemon.
  static std::vector<nanoleak::scenario::ServeRequest> warmUpRequests();
  /// Hot (circuit, corner) keys: the plan-cache working set.
  static std::size_t hotKeyCount();

 private:
  std::uint64_t seed_;
  int client_;
  int clients_;
  nanoleak::Rng rng_;
  /// One hot request shape.
  struct Combo {
    const char* circuit;
    const char* flavour;
    double temperature_k;
    std::size_t vectors;
    bool walk;
  };
  /// Hot (circuit, corner, vector count, policy) combinations, each as
  /// often as its weight, in a seeded order reshuffled every cycle: every
  /// client sends the same mix, so it does not drift with the seed.
  std::vector<Combo> schedule_;
  std::uint64_t index_ = 0;
  bool last_novel_ = false;
};

/// Client options: bounded waits and no retry, so a refused or lost
/// request is a failure.
nanoleak::serve::ServeClient::Options clientOptions();

/// Starts the serve workload's daemon on `socket_path` and warms its hot
/// set: executors x engine threads and the admission queue sized from
/// `cpus`.
std::unique_ptr<nanoleak::serve::Server> startWarmDaemon(
    int cpus, const std::string& socket_path);

}  // namespace perfbench
