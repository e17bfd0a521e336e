#include "mc/monte_carlo.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>

#include "circuit/dc_solver.h"
#include "circuit/leakage_meter.h"
#include "circuit/netlist.h"
#include "circuit/solver_kernel.h"
#include "gates/gate_builder.h"
#include "util/error.h"
#include "util/statistics.h"

namespace nanoleak::mc {

using circuit::NodeId;

namespace {

/// Replays a pre-drawn variation list in instantiation order.
class ReplayProvider {
 public:
  explicit ReplayProvider(const std::vector<device::DeviceVariation>& list)
      : list_(list) {}

  gates::VariationProvider provider() {
    return [this]() {
      require(index_ < list_.size(), "ReplayProvider: exhausted");
      return list_[index_++];
    };
  }

 private:
  const std::vector<device::DeviceVariation>& list_;
  std::size_t index_ = 0;
};

/// A built (not yet solved) Fig. 10 fixture.
struct BuiltFixture {
  circuit::Netlist netlist;
  std::vector<double> seed;
  /// Nodes fixed at the VDD level (rail + the drv_in pins bound high);
  /// re-bound per trial when the die's VDD is varied.
  std::vector<NodeId> vdd_fixed;
};

/// Builds the fixture netlist: per-pin reference drivers, gate under test,
/// and (optionally) the input/output loading inverters.
BuiltFixture buildFixture(const device::Technology& technology,
                          const McFixtureConfig& config, bool with_loading,
                          const gates::VariationProvider& provider) {
  BuiltFixture built;
  circuit::Netlist& netlist = built.netlist;
  const NodeId vdd = netlist.addNode("VDD");
  const NodeId gnd = netlist.addNode("GND");
  netlist.fixVoltage(vdd, technology.vdd);
  netlist.fixVoltage(gnd, 0.0);
  built.vdd_fixed.push_back(vdd);

  gates::GateNetlistBuilder builder(netlist, technology, vdd, gnd);

  const auto pins = config.input_vector.size();
  std::vector<NodeId> pin_nodes(pins);

  // Per-pin reference driver (owner 1+pin).
  for (std::size_t pin = 0; pin < pins; ++pin) {
    const bool level = config.input_vector[pin];
    const NodeId drv_in = netlist.addNode("drv_in" + std::to_string(pin));
    netlist.fixVoltage(drv_in, level ? 0.0 : technology.vdd);
    if (!level) {
      built.vdd_fixed.push_back(drv_in);
    }
    pin_nodes[pin] = netlist.addNode("pin" + std::to_string(pin));
    const std::array<NodeId, 1> ins{drv_in};
    const std::array<bool, 1> in_vals{!level};
    builder.instantiate(gates::GateKind::kInv, ins, pin_nodes[pin],
                        1 + static_cast<int>(pin), in_vals, provider);
  }

  // Gate under test (owner 0).
  const NodeId out = netlist.addNode("out");
  std::array<bool, 8> vals{};
  for (std::size_t pin = 0; pin < pins; ++pin) {
    vals[pin] = config.input_vector[pin];
  }
  builder.instantiate(config.kind, pin_nodes, out, /*owner=*/0,
                      std::span<const bool>(vals.data(), pins), provider);
  const bool out_level = gates::evaluateGate(
      config.kind, std::span<const bool>(vals.data(), pins));

  if (with_loading) {
    // Input-loading inverters on every pin net, output-loading inverters
    // on the output net. Their outputs drive private nodes.
    for (std::size_t pin = 0; pin < pins; ++pin) {
      for (int i = 0; i < config.input_loads; ++i) {
        const NodeId lout = netlist.addNode(
            "inload" + std::to_string(pin) + "_" + std::to_string(i));
        const std::array<NodeId, 1> ins{pin_nodes[pin]};
        const std::array<bool, 1> in_vals{config.input_vector[pin]};
        builder.instantiate(gates::GateKind::kInv, ins, lout,
                            circuit::kNoOwner, in_vals, provider);
      }
    }
    for (int i = 0; i < config.output_loads; ++i) {
      const NodeId lout = netlist.addNode("outload" + std::to_string(i));
      const std::array<NodeId, 1> ins{out};
      const std::array<bool, 1> in_vals{out_level};
      builder.instantiate(gates::GateKind::kInv, ins, lout,
                          circuit::kNoOwner, in_vals, provider);
    }
  }

  built.seed.assign(netlist.nodeCount(), 0.5 * technology.vdd);
  built.seed[vdd] = technology.vdd;
  built.seed[gnd] = 0.0;
  for (std::size_t pin = 0; pin < pins; ++pin) {
    built.seed[pin_nodes[pin]] =
        config.input_vector[pin] ? technology.vdd : 0.0;
  }
  built.seed[out] = out_level ? technology.vdd : 0.0;
  for (const auto& [node, voltage] : builder.seeds()) {
    built.seed[node] = voltage;
  }
  return built;
}

circuit::SolverOptions fixtureOptions(const device::Technology& technology) {
  circuit::SolverOptions options;
  options.temperature_k = technology.temperature_k;
  options.bracket_lo = -0.3;
  options.bracket_hi = technology.vdd + 0.3;
  return options;
}

[[noreturn]] void throwFixtureNonConvergence(
    const circuit::Netlist& netlist, const circuit::Solution& solution) {
  std::string message = "MonteCarloEngine: fixture solve failed";
  const std::string detail = circuit::nonConvergenceDetail(netlist, solution);
  if (!detail.empty()) {
    message += " (" + detail + ")";
  }
  throw ConvergenceError(message);
}

/// Builds the fixture and returns the gate-under-test decomposition
/// (legacy rebuild-per-trial path).
device::LeakageBreakdown solveFixture(
    const device::Technology& technology, const McFixtureConfig& config,
    bool with_loading, const std::vector<device::DeviceVariation>& vars) {
  ReplayProvider replay(vars);
  const BuiltFixture built =
      buildFixture(technology, config, with_loading, replay.provider());
  const circuit::DcSolver solver(fixtureOptions(technology));
  const circuit::Solution solution = solver.solve(built.netlist, built.seed);
  if (!solution.converged) {
    throwFixtureNonConvergence(built.netlist, solution);
  }
  const device::Environment env{technology.temperature_k};
  return circuit::leakageByOwner(built.netlist, solution.voltages, env,
                                 1)[0];
}

}  // namespace

/// One compiled (with, without) fixture pair plus the nominal operating
/// points warm starts are derived from. Trials mutate the kernels, so a
/// pair is owned by one worker at a time (see the pool).
struct MonteCarloEngine::CompiledFixtures {
  struct One {
    circuit::Netlist netlist;
    circuit::SolverKernel kernel;
    std::vector<NodeId> vdd_fixed;
    std::vector<double> cold_seed;
    std::vector<double> nominal;

    /// Compiles `built` and solves its nominal operating point, or adopts
    /// `known_nominal` when given.
    One(BuiltFixture built, const circuit::SolverOptions& options,
        const std::vector<double>* known_nominal)
        : netlist(std::move(built.netlist)),
          kernel(netlist, options),
          vdd_fixed(std::move(built.vdd_fixed)),
          cold_seed(std::move(built.seed)) {
      if (known_nominal != nullptr) {
        nominal = *known_nominal;
        return;
      }
      const circuit::Solution solution = kernel.solve(cold_seed);
      if (!solution.converged) {
        throwFixtureNonConvergence(netlist, solution);
      }
      nominal = std::move(solution.voltages);
    }

    /// Re-binds one trial (variations + die VDD), warm-starts from the
    /// VDD-scaled nominal point and returns the gate-under-test leakage.
    device::LeakageBreakdown solveTrial(
        std::span<const device::DeviceVariation> vars, double vdd,
        double nominal_vdd) {
      kernel.rebindVariations(vars);
      for (const NodeId node : vdd_fixed) {
        kernel.setFixedVoltage(node, vdd);
      }
      circuit::SolverOptions options = kernel.options();
      options.bracket_hi = vdd + 0.3;
      kernel.setOptions(options);

      std::vector<double> seed = nominal;
      const double scale = vdd / nominal_vdd;
      for (double& v : seed) {
        v *= scale;
      }
      const circuit::Solution solution = kernel.solve(seed, {}, &cold_seed);
      if (!solution.converged) {
        throwFixtureNonConvergence(netlist, solution);
      }
      return kernel.leakageByOwner(solution.voltages, 1)[0];
    }
  };

  One with;
  One without;

  /// Builds the pair, solving the nominal operating points unless both
  /// are given.
  CompiledFixtures(const device::Technology& technology,
                   const McFixtureConfig& config,
                   const std::vector<double>* nominal_with,
                   const std::vector<double>* nominal_without)
      : with(buildFixture(technology, config, /*with_loading=*/true, {}),
             fixtureOptions(technology), nominal_with),
        without(buildFixture(technology, config, /*with_loading=*/false, {}),
                fixtureOptions(technology), nominal_without) {}
};

MonteCarloEngine::MonteCarloEngine(device::Technology technology,
                                   VariationSigmas sigmas,
                                   McFixtureConfig config)
    : technology_(std::move(technology)),
      sigmas_(sigmas),
      config_(std::move(config)) {
  require(config_.input_vector.size() ==
              static_cast<std::size_t>(gates::inputCount(config_.kind)),
          "MonteCarloEngine: input vector arity mismatch");
  require(config_.input_loads >= 0 && config_.output_loads >= 0,
          "MonteCarloEngine: load counts must be >= 0");
}

MonteCarloEngine::~MonteCarloEngine() = default;

std::vector<device::DeviceVariation> MonteCarloEngine::drawDeviceVariations(
    VariationSampler& sampler, const DieSample& die) const {
  // Pre-draw variations in fixture instantiation order: drivers, gate,
  // loaders. The without-loading build uses the shared prefix, so the
  // paired comparison isolates the presence of the loading gates.
  const auto pins = config_.input_vector.size();
  const int gate_transistors =
      gates::cellTopology(config_.kind).transistorCount();
  const std::size_t total_devices =
      2 * pins + static_cast<std::size_t>(gate_transistors) +
      2 * pins * static_cast<std::size_t>(config_.input_loads) +
      2 * static_cast<std::size_t>(config_.output_loads);
  std::vector<device::DeviceVariation> vars;
  vars.reserve(total_devices);
  for (std::size_t i = 0; i < total_devices; ++i) {
    vars.push_back(sampler.sampleDevice(die));
  }
  return vars;
}

std::unique_ptr<MonteCarloEngine::CompiledFixtures>
MonteCarloEngine::acquireFixtures() const {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      auto fixtures = std::move(pool_.back());
      pool_.pop_back();
      return fixtures;
    }
  }
  // Pool empty: build a fresh pair. Every pair built from the same
  // technology/config is identical, so which worker gets which pair never
  // affects results - and only the first solves the nominal operating
  // points; later pairs adopt them, keeping solve counts independent of
  // how many workers found the pool empty.
  std::unique_ptr<CompiledFixtures> fixtures;
  std::call_once(nominal_once_, [&] {
    fixtures = std::make_unique<CompiledFixtures>(technology_, config_,
                                                  nullptr, nullptr);
    nominal_with_ = fixtures->with.nominal;
    nominal_without_ = fixtures->without.nominal;
  });
  if (fixtures == nullptr) {
    fixtures = std::make_unique<CompiledFixtures>(
        technology_, config_, &nominal_with_, &nominal_without_);
  }
  return fixtures;
}

void MonteCarloEngine::releaseFixtures(
    std::unique_ptr<CompiledFixtures> fixtures) const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(fixtures));
}

McSample MonteCarloEngine::runOneLegacy(VariationSampler& sampler) const {
  const DieSample die = sampler.sampleDie();
  const std::vector<device::DeviceVariation> vars =
      drawDeviceVariations(sampler, die);

  device::Technology sample_tech = technology_;
  sample_tech.vdd =
      std::clamp(technology_.vdd + die.delta_vdd, 0.3, 2.0 * technology_.vdd);

  McSample sample;
  sample.with_loading =
      solveFixture(sample_tech, config_, /*with_loading=*/true, vars);
  sample.without_loading =
      solveFixture(sample_tech, config_, /*with_loading=*/false, vars);
  return sample;
}

McSample MonteCarloEngine::runOneCompiled(CompiledFixtures& fixtures,
                                          VariationSampler& sampler) const {
  const DieSample die = sampler.sampleDie();
  const std::vector<device::DeviceVariation> vars =
      drawDeviceVariations(sampler, die);
  const double vdd =
      std::clamp(technology_.vdd + die.delta_vdd, 0.3, 2.0 * technology_.vdd);

  McSample sample;
  sample.with_loading = fixtures.with.solveTrial(
      std::span<const device::DeviceVariation>(vars), vdd, technology_.vdd);
  sample.without_loading = fixtures.without.solveTrial(
      std::span<const device::DeviceVariation>(vars).first(
          fixtures.without.kernel.deviceCount()),
      vdd, technology_.vdd);
  return sample;
}

McSample MonteCarloEngine::runSample(std::uint64_t seed,
                                     std::size_t index) const {
  VariationSampler sampler(sigmas_, deriveStreamSeed(seed, index));
  if (!use_compiled_) {
    return runOneLegacy(sampler);
  }
  auto fixtures = acquireFixtures();
  // On a throwing trial the (possibly half-rebound) pair is discarded
  // rather than returned to the pool.
  McSample sample = runOneCompiled(*fixtures, sampler);
  releaseFixtures(std::move(fixtures));
  return sample;
}

McSummary MonteCarloEngine::summarizeTotals(
    const std::vector<McSample>& samples) {
  RunningStats with;
  RunningStats without;
  for (const McSample& s : samples) {
    with.add(s.with_loading.total());
    without.add(s.without_loading.total());
  }
  McSummary summary;
  if (samples.empty()) {
    return summary;
  }
  summary.mean_with = with.mean();
  summary.mean_without = without.mean();
  summary.std_with = with.stddev();
  summary.std_without = without.stddev();
  summary.max_with = with.max();
  summary.max_without = without.max();
  auto pct = [](double now, double base) {
    return base > 0.0 ? 100.0 * (now - base) / base : 0.0;
  };
  summary.mean_shift_pct = pct(summary.mean_with, summary.mean_without);
  summary.std_shift_pct = pct(summary.std_with, summary.std_without);
  summary.max_shift_pct = pct(summary.max_with, summary.max_without);
  return summary;
}

}  // namespace nanoleak::mc
