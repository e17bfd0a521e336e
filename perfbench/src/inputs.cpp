#include "inputs.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common.h"
#include "core/characterizer.h"
#include "util/error.h"

namespace perfbench {

using namespace nanoleak;

namespace {

/// Hot-set circuits, c17 to s13207, with how many requests of each vector
/// policy a schedule cycle holds per (corner, vector count). Random
/// vectors on the two largest circuits are table-lookup estimates of 45k
/// to 510k gate-patterns (tens to hundreds of ms): at full weight they
/// would take over 70% of the daemon's time and bury the per-request
/// layers (framing, codec, circuit build, content key) the workload is
/// for, so they are rarer.
struct HotCircuit {
  const char* name;
  int random_weight;
  int walk_weight;
};
const HotCircuit kCircuits[] = {
    {"c17", 4, 4},   {"rca8", 4, 4},  {"alu88", 4, 4}, {"mult88", 4, 4},
    {"s838", 4, 4},  {"s1423", 4, 4}, {"s5378", 2, 4}, {"s13207", 1, 4}};

struct Corner {
  const char* flavour;
  double temperature_k;
};
const Corner kHotCorners[] = {{"d25s", 300.0}, {"d25g", 330.0}};

/// Vectors per request, 16 to 64: dense enough that latency percentiles
/// fall inside a smooth distribution rather than between request classes.
const std::size_t kVectorCounts[] = {16, 24, 32, 40, 48, 56, 64};
/// Distinct vector seeds per run: bounds the distinct hot requests, each
/// of which the output check replays once.
constexpr std::uint64_t kVectorSeeds = 2;

scenario::ServeRequest estimateRequest(std::string id, const char* circuit,
                                       const char* flavour,
                                       double temperature_k, bool walk,
                                       std::size_t vectors,
                                       std::uint64_t vector_seed) {
  scenario::ServeRequest request;
  request.id = std::move(id);
  request.op = scenario::ServeOp::kEstimate;
  scenario::Scenario& sc = request.scenario;
  sc.method = scenario::Method::kPlanEstimate;
  sc.circuit = circuit;
  sc.flavour = flavour;
  sc.temperature_k = temperature_k;
  sc.vectors = walk ? scenario::VectorPolicy::walk(vectors, vector_seed)
                    : scenario::VectorPolicy::random(vectors, vector_seed);
  return request;
}

serve::ServerOptions daemonOptions(int cpus, const std::string& socket_path) {
  serve::ServerOptions options;
  options.socket_path = socket_path;
  // Executors x engine threads, and client connections, each stay within
  // the CPU count; the admission queue holds every client's request, so a
  // closed loop is never refused as busy.
  options.workers = cpus;
  options.threads = 1;
  options.queue_capacity = 4 * static_cast<std::size_t>(cpus);
  // Room for the hot set plus two never-seen corners: later novel corners
  // evict the least recently used entries.
  options.plan_cache_entries = RequestStream::hotKeyCount() + 2;
  return options;
}

}  // namespace

logic::SyntheticSpec largeSyntheticSpec() {
  logic::SyntheticSpec spec;
  spec.name = "large";
  spec.primary_inputs = 256;
  spec.primary_outputs = 512;
  spec.dffs = 8000;
  spec.gates = 100000;
  return spec;
}

std::vector<gates::GateKind> estimationKindsOf(
    const std::vector<const logic::LogicNetlist*>& netlists) {
  std::vector<gates::GateKind> kinds;
  for (const logic::LogicNetlist* netlist : netlists) {
    for (gates::GateKind kind : core::estimationKinds(*netlist)) {
      if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
        kinds.push_back(kind);
      }
    }
  }
  return kinds;
}

bool sameEstimate(const core::EstimateResult& a,
                  const core::EstimateResult& b) {
  auto same = [](const device::LeakageBreakdown& x,
                 const device::LeakageBreakdown& y) {
    return x.subthreshold == y.subthreshold && x.gate == y.gate &&
           x.btbt == y.btbt;
  };
  if (!same(a.total, b.total) || a.per_gate.size() != b.per_gate.size()) {
    return false;
  }
  for (std::size_t g = 0; g < a.per_gate.size(); ++g) {
    const core::GateEstimate& x = a.per_gate[g];
    const core::GateEstimate& y = b.per_gate[g];
    if (!same(x.leakage, y.leakage) || x.il != y.il || x.ol != y.ol) {
      return false;
    }
  }
  return true;
}

RequestStream::RequestStream(std::uint64_t seed, int client, int clients)
    : seed_(seed),
      client_(client),
      clients_(clients),
      rng_(deriveStreamSeed(seed, 0x5e7e0000u + std::uint64_t(client))) {}

scenario::ServeRequest RequestStream::next() {
  const std::uint64_t index = index_++;
  if (schedule_.empty()) {
    for (const HotCircuit& circuit : kCircuits) {
      for (const Corner& corner : kHotCorners) {
        for (std::size_t vectors : kVectorCounts) {
          for (bool walk : {false, true}) {
            const int weight =
                walk ? circuit.walk_weight : circuit.random_weight;
            for (int k = 0; k < weight; ++k) {
              schedule_.push_back({circuit.name, corner.flavour,
                                   corner.temperature_k, vectors, walk});
            }
          }
        }
      }
    }
    for (std::size_t i = schedule_.size() - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(schedule_[i], schedule_[rng_.uniformInt(i + 1)]);
    }
  }
  const Combo combo = schedule_.back();
  schedule_.pop_back();
  // Small seeds: JSON numbers travel as doubles.
  const std::uint64_t vector_seed =
      (seed_ % 100000) * kVectorSeeds + rng_.uniformInt(kVectorSeeds) + 1;
  std::string id = "c";
  id += std::to_string(client_);
  id += '-';
  id += std::to_string(index);
  last_novel_ = index % kNovelEvery == kNovelEvery - 1;
  if (last_novel_) {
    // Unique per (client, ordinal), so never seen before in this run.
    const std::uint64_t ordinal =
        std::uint64_t(client_) + std::uint64_t(clients_) * (index / kNovelEvery);
    const double temperature_k =
        301.0 + 1e-3 * double(ordinal) + 1e-7 * double(seed_ % 997);
    return estimateRequest(id, combo.circuit,
                           ordinal % 2 == 0 ? "d25s" : "d25g", temperature_k,
                           combo.walk, combo.vectors, vector_seed);
  }
  return estimateRequest(id, combo.circuit, combo.flavour,
                         combo.temperature_k, combo.walk, combo.vectors,
                         vector_seed);
}

std::vector<scenario::ServeRequest> RequestStream::warmUpRequests() {
  std::vector<scenario::ServeRequest> requests;
  for (const Corner& corner : kHotCorners) {
    for (const HotCircuit& circuit : kCircuits) {
      requests.push_back(estimateRequest(
          "warm-" + std::to_string(requests.size()), circuit.name,
          corner.flavour,
          corner.temperature_k, false, kVectorCounts[0], 1));
    }
  }
  return requests;
}

std::size_t RequestStream::hotKeyCount() {
  return std::size(kCircuits) * std::size(kHotCorners);
}

serve::ServeClient::Options clientOptions() {
  serve::ServeClient::Options options;
  options.connect_timeout_ms = 10000;
  options.request_timeout_ms = 120000;
  options.retries = 0;
  return options;
}

std::unique_ptr<serve::Server> startWarmDaemon(int cpus,
                                               const std::string& socket_path) {
  auto server =
      std::make_unique<serve::Server>(daemonOptions(cpus, socket_path));
  server->start();
  // Every client connection sends the whole warm-up set, each starting at
  // its own offset: the hot corners characterize in parallel and every
  // executor has served before the first timed request.
  const std::vector<scenario::ServeRequest> requests =
      RequestStream::warmUpRequests();
  std::vector<std::string> errors(static_cast<std::size_t>(cpus));
  forEachOnThreads(cpus, errors.size(), [&](std::size_t c, int) {
    try {
      serve::ServeClient client =
          serve::ServeClient::connectUnix(socket_path, clientOptions());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const scenario::ServeRequest& request =
            requests[(i + c * requests.size() / errors.size()) %
                     requests.size()];
        const scenario::ServeResponse response = client.call(request);
        if (response.status != scenario::ServeStatus::kOk) {
          throw Error("serve: warm-up request " + request.id + " answered " +
                      toString(response.status) + ": " + response.message);
        }
      }
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
  });
  for (const std::string& error : errors) {
    if (!error.empty()) throw Error(error);
  }
  return server;
}

}  // namespace perfbench
