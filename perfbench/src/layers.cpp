// The layer probe of the traced run: seeded inputs replayed through each
// src/ module's public functions, one span per call, so every layer's
// cost is measured on its own. Counters come from obs::snapshot() deltas
// around the calls; nothing inside the program is traced.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/characterizer.h"
#include "core/estimation_plan.h"
#include "core/golden.h"
#include "device/compiled_model.h"
#include "engine/batch_runner.h"
#include "engine/plan_cache.h"
#include "engine/table_cache.h"
#include "inputs.h"
#include "logic/generators.h"
#include "logic/logic_sim.h"
#include "obs/metrics.h"
#include "scenario/golden_file.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "scenario/serve_protocol.h"
#include "search/optimizer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "thermal/thermal_sweep.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace nanoleak;

/// Cold corners characterized, golden warm solves, Monte-Carlo trials,
/// thermal curves, and walk steps of the probe.
constexpr int kCorners = 3;
constexpr int kGoldenWarmSolves = 3;
constexpr std::size_t kMcTrials = 128;
constexpr int kThermalCurves = 2;
constexpr std::size_t kWalkSteps = 1000;
/// Alternating rounds of the estimation passes (see estimation()).
constexpr int kEstimateRepeats = 3;
constexpr std::size_t kLargePatterns = 4;
constexpr std::size_t kDeviceBiases = 4096;
constexpr int kDeviceRepeats = 64;
constexpr int kPings = 64;
/// Requests per client of the serve loop: one full period of the
/// stream's never-seen corners, so misses and evictions show.
constexpr std::size_t kServeRequestsPerClient = RequestStream::kNovelEvery;
/// Served requests replayed in-process layer by layer.
constexpr std::size_t kReplayEvery = 16;
constexpr double kMaxEstimateErrorPct = 6.5;

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

class Probe {
 public:
  Probe(const RunConfig& config, Tracer& tracer, Result& result)
      : config_(config),
        tracer_(tracer),
        result_(result),
        rng_(deriveStreamSeed(config.seed, 0x9b0e)),
        tech_(scenario::technologyForFlavour("d25s")),
        tables_(std::make_shared<engine::TableCache>()),
        runner1_(engine::BatchOptions{.threads = 1, .cache = tables_}),
        runner_(engine::BatchOptions{.threads = config.cpus, .cache = tables_}) {}

  void run() {
    section("characterization", [&] { characterization(); });
    section("device", [&] { device(); });
    section("estimation", [&] { estimation(); });
    section("search", [&] { searches(); });
    section("golden", [&] { golden(); });
    section("monte-carlo", [&] { monteCarlo(); });
    section("thermal", [&] { thermalCurves(); });
    section("serve", [&] { serveLoop(); });
  }

 private:
  template <typename F>
  void section(const char* name, F&& body) {
    result_.attempt();
    try {
      body();
    } catch (const std::exception& e) {
      result_.fail(std::string("probe ") + name + ": " + e.what());
    }
  }

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    result_.set(name, value, unit);
    Result::report(name, unit, value, samples);
  }

  void set(const std::string& name, const std::string& unit,
           const Samples& samples, double scale) {
    result_.set(name, samples.median() * scale, unit);
    Result::report(name, unit, samples, scale);
  }

  const core::EstimationPlan& plan(const std::string& circuit) {
    auto it = plans_.find(circuit);
    if (it != plans_.end()) return *it->second.plan;
    Compiled& c = plans_[circuit];
    c.netlist = std::make_unique<logic::LogicNetlist>(
        scenario::buildCircuit(circuit));
    c.library = std::make_unique<core::LeakageLibrary>(
        tables_->library(tech_, core::estimationKinds(*c.netlist)));
    c.plan = std::make_unique<core::EstimationPlan>(*c.netlist, *c.library);
    return *c.plan;
  }

  // --- core characterizer, circuit solver -----------------------------
  void characterization() {
    static const char* const kFlavours[] = {"d25s", "d25g", "d25jn"};
    Samples seconds;
    double node_solves = 0.0, fallbacks = 0.0, batch_solves = 0.0;
    for (int i = 0; i < kCorners; ++i) {
      device::Technology tech = scenario::technologyForFlavour(kFlavours[i]);
      tech.temperature_k = rng_.uniform(250.0, 390.0);
      engine::TableCache cold;
      const obs::Snapshot before = obs::snapshot();
      seconds.add(tracer_.time("core.characterize", [&] {
        cold.library(tech, core::generatorGateKinds());
      }));
      const obs::Snapshot delta = obs::snapshot().deltaSince(before);
      node_solves += double(delta.counterValue("solver.node_solves"));
      fallbacks += double(delta.counterValue("solver.batch_fallbacks"));
      batch_solves += double(delta.counterValue("solver.batch_solves"));
    }
    set("core.characterize_s", "s", seconds, 1.0);
    set("circuit.node_solves", node_solves / kCorners, "count", kCorners);
    set("circuit.node_solves_per_s", node_solves / seconds.sum(), "1/s",
        kCorners);
    set("circuit.batch_fallback_ratio", ratio(fallbacks, batch_solves),
        "ratio", std::size_t(batch_solves));
  }

  // --- device model ----------------------------------------------------
  void device() {
    const device::Environment env{tech_.temperature_k};
    const device::DeviceCoeffs devices[] = {
        device::compileDevice(tech_.nmos, tech_.unit_width_n, {}, env),
        device::compileDevice(tech_.pmos,
                              tech_.unit_width_n * tech_.beta_ratio, {}, env)};
    std::vector<device::BiasPoint> biases(kDeviceBiases);
    for (device::BiasPoint& b : biases) {
      b = {rng_.uniform(0.0, tech_.vdd), rng_.uniform(0.0, tech_.vdd),
           rng_.uniform(0.0, tech_.vdd), rng_.uniform(0.0, tech_.vdd)};
    }
    double sink = 0.0;
    const double seconds = tracer_.time("device.compiledCurrents", [&] {
      for (int r = 0; r < kDeviceRepeats; ++r) {
        for (const device::DeviceCoeffs& d : devices) {
          for (const device::BiasPoint& b : biases) {
            sink += device::compiledCurrents(d, b).sum();
          }
        }
      }
    });
    const double evals = double(kDeviceRepeats) * 2.0 * kDeviceBiases;
    result_.check(std::isfinite(sink), "probe: device currents not finite");
    set("device.eval_ns", seconds / evals * 1e9, "ns", std::size_t(evals));
  }

  // --- logic simulator, estimator, engine pool -------------------------
  void estimation() {
    const core::EstimationPlan& s13207 = plan("s13207");
    const std::size_t gates = s13207.gateCount();
    const std::size_t batch_size =
        32 * static_cast<std::size_t>(config_.cpus);
    const auto batch = randomPatterns(batch_size, s13207.sourceCount(), rng_);

    // An untimed pass first, then kEstimateRepeats rounds that each time
    // the batch at 1 thread, at full width, and replayed one layer at a
    // time: simulation alone, then the full estimate (which simulates
    // internally). Medians of the rounds keep a drift in machine speed
    // from reading as a gap between the passes.
    runner1_.runPatterns(s13207, batch);
    const logic::LogicSimulator sim(s13207.netlist());
    std::vector<bool> values;
    core::EstimationWorkspace ws(s13207);
    core::EstimateResult out;
    Samples t1, tn, simulate, estimate;
    double stolen = 0.0, caller = 0.0;
    bool same = true;
    for (int r = 0; r < kEstimateRepeats; ++r) {
      std::vector<core::EstimateResult> single, parallel;
      t1.add(tracer_.time("engine.runPatterns", [&] {
        single = runner1_.runPatterns(s13207, batch);
      }));
      const obs::Snapshot before = obs::snapshot();
      tn.add(tracer_.time("engine.runPatterns", [&] {
        parallel = runner_.runPatterns(s13207, batch);
      }));
      const obs::Snapshot pool = obs::snapshot().deltaSince(before);
      stolen += double(pool.counterValue("pool.chunks_stolen"));
      caller += double(pool.counterValue("pool.chunks_caller"));

      double simulate_s = 0.0, estimate_s = 0.0;
      same = same && single.size() == batch.size() &&
             parallel.size() == batch.size();
      for (std::size_t i = 0; same && i < batch.size(); ++i) {
        simulate_s += tracer_.time("logic.simulateInto",
                                   [&] { sim.simulateInto(batch[i], values); });
        estimate_s += tracer_.time("core.estimate",
                                   [&] { s13207.estimate(batch[i], ws, out); });
        same = sameEstimate(out, single[i]) &&
               sameEstimate(single[i], parallel[i]);
      }
      simulate.add(simulate_s);
      estimate.add(estimate_s);
    }
    result_.check(same, "probe: runPatterns at 1 and N threads and estimate "
                        "disagree");
    const double gate_patterns = double(gates) * double(batch.size());
    const std::size_t n = batch.size() * kEstimateRepeats;
    set("logic.simulate_ns_per_gate", simulate.median() / gate_patterns * 1e9,
        "ns", n);
    set("core.estimate_ns_per_gate", estimate.median() / gate_patterns * 1e9,
        "ns", n);
    // Core self time is estimate time minus the simulation inside it.
    set("core.estimate_self_ns_per_gate",
        (estimate.median() - simulate.median()) / gate_patterns * 1e9, "ns", n);
    set("core.logic_core_share_pct", 100.0 * estimate.median() / t1.median(),
        "%", n);
    set("engine.run_patterns_speedup", t1.median() / tn.median(), "ratio", n);
    set("engine.chunks_stolen_ratio", ratio(stolen, stolen + caller), "ratio",
        std::size_t(stolen + caller));

    // The large synthetic: synthesis, compile, cache-missing estimates.
    logic::LogicNetlist large;
    const double synth = tracer_.time("logic.synthesizeIscasLike", [&] {
      large = logic::synthesizeIscasLike(largeSyntheticSpec(), rng_.next());
    });
    const core::LeakageLibrary library =
        tables_->library(tech_, core::estimationKinds(large));
    std::unique_ptr<core::EstimationPlan> large_plan;
    const double compile = tracer_.time("core.EstimationPlan", [&] {
      large_plan = std::make_unique<core::EstimationPlan>(large, library);
    });
    core::EstimationWorkspace large_ws(*large_plan);
    double large_estimate = 0.0;
    for (const auto& p :
         randomPatterns(kLargePatterns, large_plan->sourceCount(), rng_)) {
      large_estimate += tracer_.time(
          "core.estimate", [&] { large_plan->estimate(p, large_ws, out); });
    }
    set("logic.synthesize_ms", synth * 1e3, "ms", 1);
    set("core.plan_compile_ms", compile * 1e3, "ms", 1);
    set("core.estimate_ns_per_gate_large",
        large_estimate / double(kLargePatterns * large.gateCount()) * 1e9,
        "ns", kLargePatterns);

    // A 1-bit-flip walk, simulated alone and estimated incrementally.
    std::vector<bool> pattern =
        logic::randomPattern(s13207.sourceCount(), rng_);
    sim.simulateInto(pattern, values);
    s13207.estimate(pattern, ws, out);
    logic::DeltaSimScratch scratch;
    std::vector<logic::GateId> dirty;
    std::vector<logic::NetId> changed;
    double simulate_delta = 0.0, estimate_delta = 0.0;
    const obs::Snapshot walk_before = obs::snapshot();
    for (std::size_t step = 0; step < kWalkSteps; ++step) {
      const std::size_t bit = rng_.uniformInt(pattern.size());
      pattern[bit] = !pattern[bit];
      simulate_delta += tracer_.time("logic.simulateDelta", [&] {
        sim.simulateDelta(pattern, values, dirty, changed, scratch);
      });
      estimate_delta += tracer_.time("core.estimateDelta", [&] {
        s13207.estimateDelta(pattern, ws, out);
      });
    }
    const obs::Snapshot walk = obs::snapshot().deltaSince(walk_before);
    core::EstimationWorkspace check_ws(s13207);
    result_.check(sameEstimate(out, s13207.estimate(pattern, check_ws)),
                  "probe: walk differs from a full estimate");
    double outcomes = 0.0;
    for (const char* name : {"estimate.cold", "estimate.unchanged",
                             "estimate.incremental", "estimate.fallback_full"}) {
      outcomes += double(walk.counterValue(name));
    }
    set("logic.simulate_delta_us_per_step", simulate_delta / kWalkSteps * 1e6,
        "us", kWalkSteps);
    set("core.estimate_delta_us_per_step", estimate_delta / kWalkSteps * 1e6,
        "us", kWalkSteps);
    set("core.delta_incremental_ratio",
        ratio(double(walk.counterValue("estimate.incremental")), outcomes),
        "ratio", std::size_t(outcomes));
  }

  // --- search ----------------------------------------------------------
  void searches() {
    const core::EstimationPlan& rca8 = plan("rca8");
    Samples exact_ms;
    search::SearchStats total;
    auto add = [&](const search::SearchStats& s) {
      total.nodes_expanded += s.nodes_expanded;
      total.leaf_evals += s.leaf_evals;
      total.prunes += s.prunes;
      total.prune_checks += s.prune_checks;
    };
    for (search::Objective objective :
         {search::Objective::kMin, search::Objective::kMax}) {
      search::SearchResult found;
      exact_ms.add(tracer_.time("search.exactSearch", [&] {
        found = search::exactSearch(rca8, objective);
      }));
      result_.check(found.exact && found.vector.size() == rca8.sourceCount(),
                    "probe: exact search result malformed");
      add(found.stats);
    }
    search::SearchOptions options;
    options.algorithm = search::Algorithm::kHeuristic;
    options.budget = 64;
    options.seed = rng_.next();
    search::SearchResult heuristic;
    const double heuristic_s = tracer_.time("search.heuristicSearch", [&] {
      heuristic = search::heuristicSearch(plan("s13207"), options);
    });
    add(heuristic.stats);
    set("search.exact_ms", exact_ms.mean() * 1e3, "ms", exact_ms.size());
    set("search.heuristic_ms", heuristic_s * 1e3, "ms", 1);
    set("search.nodes_expanded", double(total.nodes_expanded), "count", 3);
    set("search.leaf_evals", double(total.leaf_evals), "count", 3);
    set("search.prune_ratio",
        ratio(double(total.prunes), double(total.prune_checks)), "ratio",
        std::size_t(total.prune_checks));
  }

  // --- golden full solve -----------------------------------------------
  void golden() {
    const core::EstimationPlan& s1423 = plan("s1423");
    core::GoldenSolver solver(s1423.netlist(), tech_);
    core::EstimationWorkspace ws(s1423);
    Samples warm, error_pct;
    double first = 0.0;
    for (int i = 0; i <= kGoldenWarmSolves; ++i) {
      const std::vector<bool> vector =
          logic::randomPattern(s1423.sourceCount(), rng_);
      core::GoldenResult g;
      const double t = tracer_.time("core.GoldenSolver::solve",
                                    [&] { g = solver.solve(vector); });
      if (i == 0) {
        first = t;
      } else {
        warm.add(t);
      }
      const double reference = g.total.total();
      const double err = 100.0 *
                         std::fabs(s1423.estimate(vector, ws).total.total() -
                                   reference) /
                         reference;
      error_pct.add(err);
      result_.check(err <= kMaxEstimateErrorPct,
                    "probe: estimate off golden by " + std::to_string(err) +
                        "%");
    }
    set("core.golden_first_solve_ms", first * 1e3, "ms", 1);
    set("core.golden_solve_ms", "ms", warm, 1e3);
    set("core.est_error_pct", error_pct.mean(), "%", error_pct.size());
  }

  // --- Monte-Carlo -----------------------------------------------------
  void monteCarlo() {
    engine::McSweep sweep;
    sweep.technology = tech_;
    sweep.samples = kMcTrials;
    sweep.seed = rng_.next();
    engine::McBatchResult population;
    const double seconds = tracer_.time("mc.McSweep",
                                        [&] { population = runner1_.run(sweep); });
    result_.check(population.samples.size() == kMcTrials,
                  "probe: Monte-Carlo population size");
    set("mc.trial_us", seconds / kMcTrials * 1e6, "us", kMcTrials);
  }

  // --- thermal ---------------------------------------------------------
  void thermalCurves() {
    const logic::LogicNetlist c17 = logic::c17();
    Samples seconds;
    double rebinds = 0.0;
    for (int i = 0; i < kThermalCurves; ++i) {
      thermal::ThermalSweepOptions options;
      options.grid.t_min_k = rng_.uniform(233.0, 253.0);
      options.grid.t_max_k = rng_.uniform(378.0, 398.0);
      const thermal::ThermalSweepEngine engine(tech_, options);
      thermal::ThermalLibrarySet libraries;
      const obs::Snapshot before = obs::snapshot();
      seconds.add(tracer_.time("thermal.characterize", [&] {
        libraries = engine.characterize(core::estimationKinds(c17));
      }));
      rebinds += double(obs::snapshot().deltaSince(before).counterValue(
          "thermal.fixture_rebinds"));
      result_.check(libraries.libraries.size() == options.grid.points,
                    "probe: thermal library set size");
    }
    set("thermal.characterize_s", "s", seconds, 1.0);
    set("thermal.fixture_rebinds", rebinds / kThermalCurves, "count",
        kThermalCurves);
  }

  // --- serve daemon, scenario layer, plan cache ------------------------
  struct Served {
    scenario::ServeRequest request;
    double latency = 0.0;
    std::string payload;
    std::uint64_t span_request = 0;
  };

  void serveLoop() {
    const std::string socket = config_.work_dir + "/probe-" +
                               std::to_string(::getpid()) + ".sock";
    std::unique_ptr<serve::Server> server =
        startWarmDaemon(config_.cpus, socket);

    Samples ping;
    {
      serve::ServeClient client =
          serve::ServeClient::connectUnix(socket, clientOptions());
      scenario::ServeRequest request;
      request.op = scenario::ServeOp::kPing;
      for (int i = 0; i < kPings; ++i) {
        request.id = "ping-" + std::to_string(i);
        ping.add(tracer_.time("serve.ping", [&] { client.call(request); }));
      }
    }

    // The closed loop: one client per CPU, one period of the stream.
    const obs::Snapshot before = obs::snapshot();
    std::vector<std::vector<Served>> logs(config_.cpus);
    std::atomic<std::uint64_t> next_id{1};
    std::vector<std::thread> threads;
    std::vector<std::string> errors(config_.cpus);
    for (int c = 0; c < config_.cpus; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve::ServeClient client =
              serve::ServeClient::connectUnix(socket, clientOptions());
          RequestStream stream(deriveStreamSeed(config_.seed, 0x9b0e5e),
                               c, config_.cpus);
          for (std::size_t i = 0; i < kServeRequestsPerClient; ++i) {
            Served s;
            s.request = stream.next();
            s.span_request = next_id++;
            scenario::ServeResponse response;
            s.latency = tracer_.time(
                "serve.ServeClient::call",
                [&] { response = client.call(s.request); }, s.span_request);
            if (response.status != scenario::ServeStatus::kOk) {
              throw Error("request " + s.request.id + " answered " +
                          toString(response.status));
            }
            s.payload = std::move(response.payload);
            logs[c].push_back(std::move(s));
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const obs::Snapshot loop = obs::snapshot().deltaSince(before);
    for (const std::string& e : errors) {
      if (!e.empty()) result_.fail("probe: serve loop: " + e);
    }
    const double hits = double(loop.counterValue("plan_cache.hits"));
    const double misses = double(loop.counterValue("plan_cache.misses"));
    std::size_t served = 0;
    for (const auto& log : logs) served += log.size();
    set("serve.ping_us", "us", ping, 1e6);
    set("engine.plan_cache_hit_ratio", ratio(hits, hits + misses), "ratio",
        std::size_t(hits + misses));
    set("engine.plan_cache_evictions",
        double(loop.counterValue("plan_cache.evictions")), "count", served);
    set("serve.rejections",
        double(loop.counterValue("serve.busy_rejections") +
               loop.counterValue("serve.errors")),
        "count", served);

    // Replay a sample of the served requests in-process, layer by layer,
    // on a warm runner and plan cache; spans share the request's id.
    engine::BatchRunner runner(engine::BatchOptions{
        .threads = 1, .cache = server->tableCache()});
    engine::PlanCache plans;
    Samples codec, build, key, run, serialize, overhead;
    for (const auto& log : logs) {
      for (std::size_t i = 0; i < log.size(); i += kReplayEvery) {
        replay(log[i], runner, plans, codec, build, key, run, serialize,
               overhead);
      }
    }
    set("scenario.codec_us", "us", codec, 1e6);
    set("scenario.build_circuit_us", "us", build, 1e6);
    set("engine.content_key_us", "us", key, 1e6);
    set("scenario.run_scenario_ms", "ms", run, 1e3);
    set("scenario.serialize_us", "us", serialize, 1e6);
    set("serve.overhead_ms", "ms", overhead, 1e3);

    // A cold key on a fresh plan cache and characterization cache.
    Samples build_ms;
    for (int i = 0; i < 2; ++i) {
      engine::BatchRunner cold(engine::BatchOptions{.threads = 1});
      engine::PlanCache fresh;
      scenario::Scenario sc;
      sc.name = "probe-cold";
      sc.circuit = "s1423";
      sc.temperature_k = rng_.uniform(303.0, 309.0);
      sc.vectors = scenario::VectorPolicy::random(16, rng_.uniformInt(1000) + 1);
      build_ms.add(tracer_.time("engine.planBuild", [&] {
        scenario::runScenario(sc, cold, &fresh);
      }));
    }
    set("engine.plan_build_ms", "ms", build_ms, 1e3);
    server.reset();
  }

  void replay(const Served& s, engine::BatchRunner& runner,
              engine::PlanCache& plans, Samples& codec, Samples& build,
              Samples& key, Samples& run, Samples& serialize,
              Samples& overhead) {
    const std::uint64_t id = s.span_request;
    const std::string frame = scenario::encodeRequest(s.request);
    // Warm the runner's plan cache for this request's key first.
    scenario::runScenario(scenario::decodeRequest(frame).scenario, runner,
                          &plans);

    scenario::ServeRequest decoded;
    const double decode_s = tracer_.time(
        "scenario.decodeRequest",
        [&] { decoded = scenario::decodeRequest(frame); }, id);
    const scenario::Scenario& sc = decoded.scenario;
    logic::LogicNetlist netlist;
    build.add(tracer_.time(
        "scenario.buildCircuit",
        [&] { netlist = scenario::buildCircuit(sc.circuit); }, id));
    core::EstimatorOptions estimator;
    estimator.with_loading = sc.with_loading;
    core::CharacterizationOptions characterization;
    characterization.solver_path = sc.char_solver_path;
    key.add(tracer_.time(
        "engine.PlanCache::contentKey",
        [&] {
          engine::PlanCache::contentKey(netlist, scenario::technologyFor(sc),
                                        estimator, characterization);
        },
        id));
    scenario::SuiteResult suite;
    suite.suite = sc.name;
    const double run_s = tracer_.time(
        "scenario.runScenario",
        [&] { suite.scenarios.push_back(scenario::runScenario(sc, runner, &plans)); },
        id);
    run.add(run_s);
    scenario::ServeResponse response;
    response.id = decoded.id;
    serialize.add(tracer_.time(
        "scenario.serializeSuite",
        [&] { response.payload = scenario::serializeSuite(suite); }, id));
    const double encode_s = tracer_.time(
        "scenario.encodeResponse",
        [&] { scenario::encodeResponse(response); }, id);
    codec.add(decode_s + encode_s);
    overhead.add(s.latency - run_s);
    result_.check(response.payload == s.payload,
                  "probe: served payload differs from an in-process run of " +
                      s.request.id);
  }

  struct Compiled {
    std::unique_ptr<logic::LogicNetlist> netlist;
    std::unique_ptr<core::LeakageLibrary> library;
    std::unique_ptr<core::EstimationPlan> plan;
  };

  const RunConfig& config_;
  Tracer& tracer_;
  Result& result_;
  Rng rng_;
  const device::Technology tech_;
  std::shared_ptr<engine::TableCache> tables_;
  engine::BatchRunner runner1_;
  engine::BatchRunner runner_;
  std::map<std::string, Compiled> plans_;
};

}  // namespace

void runLayerProbe(const RunConfig& config, Tracer& tracer, Result& result) {
  Probe(config, tracer, result).run();
}

}  // namespace perfbench
