#include "scenario/registry.h"

#include "util/error.h"

namespace nanoleak::scenario {

void Registry::add(Scenario sc) {
  require(!sc.name.empty(), "Registry::add: scenario name must be non-empty");
  require(index_.find(sc.name) == index_.end(),
          "Registry::add: duplicate scenario name '" + sc.name + "'");
  index_.emplace(sc.name, scenarios_.size());
  scenarios_.push_back(std::move(sc));
}

bool Registry::has(const std::string& name) const {
  return index_.find(name) != index_.end();
}

const Scenario& Registry::get(const std::string& name) const {
  const auto it = index_.find(name);
  require(it != index_.end(), "unknown scenario '" + name + "'");
  return scenarios_[it->second];
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const Scenario& sc : scenarios_) {
    out.push_back(sc.name);
  }
  return out;
}

void Registry::addSuite(const std::string& name,
                        std::vector<std::string> scenario_names) {
  require(!name.empty(), "Registry::addSuite: suite name must be non-empty");
  require(!hasSuite(name),
          "Registry::addSuite: duplicate suite name '" + name + "'");
  for (const std::string& scenario_name : scenario_names) {
    require(has(scenario_name), "Registry::addSuite: suite '" + name +
                                    "' references unknown scenario '" +
                                    scenario_name + "'");
  }
  suites_.emplace_back(name, std::move(scenario_names));
}

bool Registry::hasSuite(const std::string& name) const {
  for (const auto& [suite_name, _] : suites_) {
    if (suite_name == name) {
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& Registry::suite(
    const std::string& name) const {
  for (const auto& [suite_name, scenario_names] : suites_) {
    if (suite_name == name) {
      return scenario_names;
    }
  }
  throw Error("unknown suite '" + name + "'");
}

std::vector<std::string> Registry::suiteNames() const {
  std::vector<std::string> out;
  out.reserve(suites_.size());
  for (const auto& [suite_name, _] : suites_) {
    out.push_back(suite_name);
  }
  return out;
}

namespace {

std::string scenarioName(const Scenario& sc) {
  std::string name =
      std::string(toString(sc.method)) + "/" + sc.circuit + "/" + sc.flavour;
  if (sc.method == Method::kThermalSweep) {
    // Thermal sweeps span a range; the scalar temperature is ignored.
    name += "/" + std::to_string(static_cast<int>(sc.thermal.t_min_k)) +
            "-" + std::to_string(static_cast<int>(sc.thermal.t_max_k)) + "K";
  } else {
    name += "/" + std::to_string(static_cast<int>(sc.temperature_k)) + "K";
  }
  if (sc.method == Method::kOptimize) {
    name += std::string("/") + search::toString(sc.optimize.objective);
    if (sc.optimize.algorithm == search::Algorithm::kHeuristic) {
      name += "/heur";
    }
  }
  if (!sc.with_loading) {
    name += "/noload";
  }
  if (sc.char_solver_path ==
      core::CharacterizationOptions::SolverPath::kBatched) {
    name += "/batched";
  }
  return name;
}

/// Adds `sc` under the canonical name and returns that name.
std::string addNamed(Registry& registry, Scenario sc) {
  sc.name = scenarioName(sc);
  std::string name = sc.name;
  registry.add(std::move(sc));
  return name;
}

Scenario estimate(const std::string& circuit, const std::string& flavour,
                  double temperature_k, VectorPolicy vectors) {
  Scenario sc;
  sc.method = Method::kPlanEstimate;
  sc.circuit = circuit;
  sc.flavour = flavour;
  sc.temperature_k = temperature_k;
  sc.vectors = std::move(vectors);
  return sc;
}

}  // namespace

Registry builtinRegistry() {
  Registry registry;

  // --- "ci": the committed golden regression net ---------------------------
  // Small circuits and few vectors on purpose: the whole suite (including
  // its per-corner characterizations) must stay cheap enough to run in
  // every CI job, sanitizers included. Every method is represented.
  std::vector<std::string> ci;
  const std::string ci_estimate_c17 = addNamed(
      registry,
      estimate("c17", "d25s", 300.0, VectorPolicy::random(16, 20050307)));
  ci.push_back(ci_estimate_c17);
  ci.push_back(addNamed(
      registry, estimate("c17", "d25s", 360.0,
                         VectorPolicy::random(16, 20050307))));
  ci.push_back(addNamed(
      registry, estimate("c17", "d25g", 300.0,
                         VectorPolicy::random(16, 20050307))));
  ci.push_back(addNamed(
      registry,
      estimate("rca4", "d25s", 300.0, VectorPolicy::random(12, 42))));
  {
    Scenario noload =
        estimate("rca4", "d25s", 300.0, VectorPolicy::random(12, 42));
    noload.with_loading = false;
    ci.push_back(addNamed(registry, std::move(noload)));
  }
  ci.push_back(addNamed(
      registry,
      estimate("fanout_star6", "d25s", 300.0, VectorPolicy::fixedPattern())));
  {
    Scenario walk =
        estimate("rca4", "d25s", 300.0, VectorPolicy::walk(16, 7));
    walk.method = Method::kDeltaWalk;
    ci.push_back(addNamed(registry, std::move(walk)));
  }
  std::string ci_golden_c17;
  {
    Scenario golden =
        estimate("c17", "d25s", 300.0, VectorPolicy::random(2, 11));
    golden.method = Method::kGolden;
    ci_golden_c17 = addNamed(registry, std::move(golden));
    ci.push_back(ci_golden_c17);
  }
  {
    Scenario golden =
        estimate("inv_chain8", "d25s", 300.0, VectorPolicy::fixedPattern());
    golden.method = Method::kGolden;
    ci.push_back(addNamed(registry, std::move(golden)));
  }
  {
    Scenario mc;
    mc.method = Method::kMonteCarlo;
    mc.circuit = "inv_fixture";  // gate-level Fig. 10 fixture, not a netlist
    mc.flavour = "d25s";
    mc.temperature_k = 300.0;
    mc.mc_samples = 64;
    mc.mc_seed = 20050307;
    ci.push_back(addNamed(registry, std::move(mc)));
  }
  registry.addSuite("ci", ci);

  // --- "smoke": the cheapest useful pair (CLI sanity / quick local runs) ---
  registry.addSuite("smoke", {ci_estimate_c17, ci_golden_c17});

  // --- "batched": SIMD batch-solver smoke ----------------------------------
  // Same workload as the ci estimate scenario but characterized on the
  // lane-parallel kBatched path. Deliberately NOT golden-pinned: batched
  // tables agree with the pinned scan-order path within ~1e-6, which is
  // inside the estimator's tolerance but outside byte-stability.
  {
    Scenario batched =
        estimate("c17", "d25s", 300.0, VectorPolicy::random(16, 20050307));
    batched.char_solver_path =
        core::CharacterizationOptions::SolverPath::kBatched;
    const std::string batched_name = addNamed(registry, std::move(batched));
    registry.addSuite("batched", {batched_name});
  }

  // --- "fig12": the paper's circuit roster under the estimator -------------
  std::vector<std::string> fig12;
  for (const std::string& circuit : fig12CircuitNames()) {
    fig12.push_back(addNamed(
        registry,
        estimate(circuit, "d25s", 300.0, VectorPolicy::random(100, 12))));
  }
  registry.addSuite("fig12", fig12);

  // --- "corners": one circuit across flavours and temperatures ------------
  std::vector<std::string> corners;
  for (const char* flavour : {"d25s", "d25g", "d25jn"}) {
    for (double temperature_k : {300.0, 360.0}) {
      corners.push_back(addNamed(
          registry, estimate("rca8", flavour, temperature_k,
                             VectorPolicy::random(24, 20050307))));
    }
  }
  registry.addSuite("corners", corners);

  // --- "thermal": leakage-vs-T curves + model fits -------------------------
  // Small circuits and modest grids on purpose (like "ci"): the suite is
  // golden-pinned and runs in every CI job. The three flavours cover the
  // paper's component split - subthreshold (strong T), gate tunneling
  // (nearly flat), BTBT (band-gap-weak T) - so the fit metrics pin the
  // Sultan-style range-dependence story per dominant mechanism.
  std::vector<std::string> thermal;
  auto thermalScenario = [](const std::string& circuit,
                            const std::string& flavour, ThermalSpec spec,
                            VectorPolicy vectors) {
    Scenario sc;
    sc.method = Method::kThermalSweep;
    sc.circuit = circuit;
    sc.flavour = flavour;
    sc.thermal = spec;
    sc.vectors = std::move(vectors);
    return sc;
  };
  thermal.push_back(addNamed(
      registry, thermalScenario("c17", "d25s", {233.0, 398.0, 8},
                                VectorPolicy::random(12, 20050307))));
  thermal.push_back(addNamed(
      registry, thermalScenario("c17", "d25g", {233.0, 398.0, 6},
                                VectorPolicy::random(8, 20050307))));
  thermal.push_back(addNamed(
      registry, thermalScenario("c17", "d25jn", {233.0, 398.0, 6},
                                VectorPolicy::random(8, 20050307))));
  thermal.push_back(addNamed(
      registry, thermalScenario("rca4", "d25s", {253.0, 378.0, 6},
                                VectorPolicy::random(8, 42))));
  registry.addSuite("thermal", thermal);

  // --- "optimize": golden-pinned sleep/worst-vector searches ---------------
  // Exact scenarios pin the provably optimal vector, its leakage AND the
  // branch-and-bound work counters (nodes/prunes), so a regression in
  // either the optimum or the pruning machinery breaks the golden check.
  // The heuristic scenarios pin the seeded restart search end to end.
  // Like "ci", everything here is small enough for every CI job.
  std::vector<std::string> optimize;
  auto optimizeScenario = [](const std::string& circuit,
                             const std::string& flavour,
                             double temperature_k, OptimizeSpec spec) {
    Scenario sc;
    sc.method = Method::kOptimize;
    sc.circuit = circuit;
    sc.flavour = flavour;
    sc.temperature_k = temperature_k;
    sc.optimize = spec;
    return sc;
  };
  for (const search::Objective objective :
       {search::Objective::kMin, search::Objective::kMax}) {
    OptimizeSpec spec;
    spec.objective = objective;
    optimize.push_back(
        addNamed(registry, optimizeScenario("c17", "d25s", 300.0, spec)));
    optimize.push_back(
        addNamed(registry, optimizeScenario("mult22", "d25s", 300.0, spec)));
  }
  {
    OptimizeSpec spec;  // min objective, auto = exact on rca4's 9 sources
    optimize.push_back(
        addNamed(registry, optimizeScenario("rca4", "d25s", 300.0, spec)));
  }
  {
    Scenario noload = optimizeScenario("c17", "d25s", 300.0, OptimizeSpec{});
    noload.with_loading = false;
    optimize.push_back(addNamed(registry, std::move(noload)));
  }
  {
    OptimizeSpec spec;
    spec.algorithm = search::Algorithm::kHeuristic;
    spec.budget = 48;
    optimize.push_back(
        addNamed(registry, optimizeScenario("c17", "d25g", 300.0, spec)));
    // s838's 66 sources span two 64-source words of static impacts.
    optimize.push_back(
        addNamed(registry, optimizeScenario("s838", "d25s", 300.0, spec)));
  }
  registry.addSuite("optimize", optimize);

  return registry;
}

}  // namespace nanoleak::scenario
