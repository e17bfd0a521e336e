// SolverKernel::solveLanes equivalence tests.
//
// The contract under test: every lane of a lane solve agrees with a
// solve() of the same kernel with that lane's source currents bound. On
// the scalar backend (and whenever a lane takes the scalar fallback) the
// agreement is bit-for-bit; lockstep-converged lanes on a vectorized
// backend agree within 1e-6. Randomized circuits cover all three leakage
// flavours, two temperatures, partial batches, per-lane source currents,
// cold starts, cancellation, and a forced-divergence run that pins the
// fallback path to scalar bit-identity.
#include "circuit/solver_kernel.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "circuit/netlist.h"
#include "device/device_params.h"
#include "gates/gate_builder.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/rng.h"

namespace nanoleak::circuit {
namespace {

constexpr std::size_t kW = SolverKernel::kLaneWidth;

struct TestCircuit {
  Netlist netlist;
  NodeId vdd = 0;
  NodeId gnd = 0;
  std::vector<SourceId> sources;
  std::vector<double> seed;
  std::size_t gate_count = 0;
};

/// Random chain of INV/NAND2/NOR2/AOI21 gates with fixed-level primary
/// inputs and loading current sources on every gate output (so each lane
/// can get distinct loading currents).
TestCircuit randomCircuit(Rng& rng, const device::Technology& tech) {
  TestCircuit tc;
  tc.vdd = tc.netlist.addNode("VDD");
  tc.gnd = tc.netlist.addNode("GND");
  tc.netlist.fixVoltage(tc.vdd, tech.vdd);
  tc.netlist.fixVoltage(tc.gnd, 0.0);

  gates::GateNetlistBuilder builder(tc.netlist, tech, tc.vdd, tc.gnd);

  std::vector<NodeId> nets;
  std::vector<bool> levels;
  const std::size_t inputs = 2 + rng.uniformInt(3);
  for (std::size_t i = 0; i < inputs; ++i) {
    const bool level = rng.uniformInt(2) == 1;
    const NodeId node = tc.netlist.addNode("in" + std::to_string(i));
    tc.netlist.fixVoltage(node, level ? tech.vdd : 0.0);
    nets.push_back(node);
    levels.push_back(level);
  }

  const std::array<gates::GateKind, 4> kinds{
      gates::GateKind::kInv, gates::GateKind::kNand2, gates::GateKind::kNor2,
      gates::GateKind::kAoi21};
  const std::size_t gate_count = 2 + rng.uniformInt(5);
  for (std::size_t g = 0; g < gate_count; ++g) {
    const gates::GateKind kind = kinds[rng.uniformInt(kinds.size())];
    const int pins = gates::inputCount(kind);
    std::vector<NodeId> ins;
    std::array<bool, 8> vals{};
    for (int p = 0; p < pins; ++p) {
      const std::size_t pick = rng.uniformInt(nets.size());
      ins.push_back(nets[pick]);
      vals[static_cast<std::size_t>(p)] = levels[pick];
    }
    const NodeId out = tc.netlist.addNode("g" + std::to_string(g));
    builder.instantiate(kind, ins, out, static_cast<int>(g),
                        std::span<const bool>(vals.data(),
                                              static_cast<std::size_t>(pins)),
                        {});
    const bool out_level = gates::evaluateGate(
        kind,
        std::span<const bool>(vals.data(), static_cast<std::size_t>(pins)));
    nets.push_back(out);
    levels.push_back(out_level);
    tc.sources.push_back(tc.netlist.addCurrentSource(out, 0.0));
  }
  tc.gate_count = gate_count;

  tc.seed.assign(tc.netlist.nodeCount(), 0.5 * tech.vdd);
  tc.seed[tc.vdd] = tech.vdd;
  tc.seed[tc.gnd] = 0.0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    tc.seed[nets[i]] = levels[i] ? tech.vdd : 0.0;
  }
  for (const auto& [node, voltage] : builder.seeds()) {
    tc.seed[node] = voltage;
  }
  return tc;
}

SolverOptions optionsFor(const device::Technology& tech) {
  SolverOptions options;
  options.temperature_k = tech.temperature_k;
  options.bracket_lo = -0.3;
  options.bracket_hi = tech.vdd + 0.3;
  return options;
}

void expectIdenticalSolutions(const Solution& want, const Solution& got) {
  ASSERT_EQ(want.voltages.size(), got.voltages.size());
  for (std::size_t i = 0; i < want.voltages.size(); ++i) {
    EXPECT_EQ(want.voltages[i], got.voltages[i]) << "node " << i;
  }
  EXPECT_EQ(want.converged, got.converged);
  EXPECT_EQ(want.sweeps, got.sweeps);
  EXPECT_EQ(want.max_residual, got.max_residual);
  EXPECT_EQ(want.max_residual_node, got.max_residual_node);
  EXPECT_EQ(want.node_solves, got.node_solves);
}

void expectEquivalentSolutions(const Solution& want, const Solution& got,
                               double tol) {
  ASSERT_EQ(want.voltages.size(), got.voltages.size());
  EXPECT_TRUE(want.converged);
  EXPECT_TRUE(got.converged);
  for (std::size_t i = 0; i < want.voltages.size(); ++i) {
    EXPECT_NEAR(want.voltages[i], got.voltages[i], tol) << "node " << i;
  }
}

/// Random loading currents for every source of `tc`, one set per lane.
std::vector<std::vector<double>> randomAmps(Rng& rng, const TestCircuit& tc,
                                            std::size_t lanes) {
  std::vector<std::vector<double>> amps(lanes);
  for (std::vector<double>& lane : amps) {
    for (std::size_t s = 0; s < tc.sources.size(); ++s) {
      lane.push_back(rng.uniform(-2e-6, 2e-6));
    }
  }
  return amps;
}

/// Warm-seeded requests carrying `amps`, one per lane.
std::vector<SolverKernel::LaneRequest> seededRequests(
    const TestCircuit& tc, const std::vector<std::vector<double>>& amps) {
  std::vector<SolverKernel::LaneRequest> requests(amps.size());
  for (std::size_t lane = 0; lane < amps.size(); ++lane) {
    requests[lane].source_amps = amps[lane];
    requests[lane].initial_guess = &tc.seed;
    requests[lane].cluster_guess = &tc.seed;
  }
  return requests;
}

/// The scalar reference of one lane: solve() with the lane's currents
/// bound on `kernel`.
Solution scalarLane(SolverKernel& kernel, const TestCircuit& tc,
                    const std::vector<double>& amps) {
  for (std::size_t s = 0; s < tc.sources.size(); ++s) {
    kernel.setSource(tc.sources[s], amps[s]);
  }
  return kernel.solve(tc.seed, {}, &tc.seed);
}

TEST(SolverKernelLanesTest, MatchesScalarAcrossFlavoursAndTemperatures) {
  Rng rng(20050711);
  for (const device::Technology& base :
       {device::defaultTechnology(), device::gateDominatedTechnology(),
        device::btbtDominatedTechnology()}) {
    for (double t : {300.0, 360.0}) {
      device::Technology tech = base;
      tech.temperature_k = t;
      const TestCircuit tc = randomCircuit(rng, tech);
      SolverKernel kernel(tc.netlist, optionsFor(tech));

      const std::vector<std::vector<double>> amps = randomAmps(rng, tc, kW);
      const std::vector<Solution> got =
          kernel.solveLanes(seededRequests(tc, amps));
      ASSERT_EQ(got.size(), kW);
      for (std::size_t lane = 0; lane < kW; ++lane) {
        const Solution want = scalarLane(kernel, tc, amps[lane]);
        if (kW == 1) {
          expectIdenticalSolutions(want, got[lane]);
        } else {
          expectEquivalentSolutions(want, got[lane], 1e-6);
        }
      }
    }
  }
}

TEST(SolverKernelLanesTest, PartialBatchesMatchScalar) {
  Rng rng(77);
  const device::Technology tech = device::defaultTechnology();
  const TestCircuit tc = randomCircuit(rng, tech);
  SolverKernel kernel(tc.netlist, optionsFor(tech));

  for (std::size_t count = 1; count <= kW; ++count) {
    const std::vector<std::vector<double>> amps = randomAmps(rng, tc, count);
    const std::vector<Solution> got =
        kernel.solveLanes(seededRequests(tc, amps));
    ASSERT_EQ(got.size(), count);
    for (std::size_t lane = 0; lane < count; ++lane) {
      expectEquivalentSolutions(scalarLane(kernel, tc, amps[lane]),
                                got[lane], 1e-6);
    }
  }
}

// Forced divergence of the lockstep path (zero-sweep budget) drives every
// lane through the scalar fallback, which must be bit-identical to solve()
// with the same source currents.
TEST(SolverKernelLanesTest, ForcedFallbackIsBitIdenticalToScalar) {
  Rng rng(40902);
  for (const device::Technology& tech :
       {device::defaultTechnology(), device::gateDominatedTechnology()}) {
    const TestCircuit tc = randomCircuit(rng, tech);
    SolverKernel kernel(tc.netlist, optionsFor(tech));
    kernel.setMaxLockstepSweeps(0);

    const std::vector<std::vector<double>> amps = randomAmps(rng, tc, kW);
    const std::vector<Solution> got =
        kernel.solveLanes(seededRequests(tc, amps));
    for (std::size_t lane = 0; lane < kW; ++lane) {
      expectIdenticalSolutions(scalarLane(kernel, tc, amps[lane]), got[lane]);
    }
  }
}

// The equivalence tests above would pass vacuously if every lane quietly
// took the scalar fallback; this pins that the lockstep path itself
// converges well-seeded lanes (no batch_fallbacks) and that the batch
// counters account for every lane.
TEST(SolverKernelLanesTest, LockstepConvergesWellSeededLanesWithoutFallback) {
  Rng rng(606);
  const device::Technology tech = device::defaultTechnology();
  const TestCircuit tc = randomCircuit(rng, tech);
  const SolverKernel kernel(tc.netlist, optionsFor(tech));
  const std::vector<std::vector<double>> amps = randomAmps(rng, tc, kW);

  const std::uint64_t solves0 = obs::counterValue("solver.batch_solves");
  const std::uint64_t lanes0 = obs::counterValue("solver.batch_lane_solves");
  const std::uint64_t falls0 = obs::counterValue("solver.batch_fallbacks");
  const std::vector<Solution> got =
      kernel.solveLanes(seededRequests(tc, amps));
  for (const Solution& s : got) {
    EXPECT_TRUE(s.converged);
  }
  EXPECT_EQ(obs::counterValue("solver.batch_solves") - solves0, 1u);
  EXPECT_EQ(obs::counterValue("solver.batch_lane_solves") - lanes0, kW);
  EXPECT_EQ(obs::counterValue("solver.batch_fallbacks") - falls0, 0u);
}

// Cold lane solves (no initial guess) must also converge and agree with a
// cold solve().
TEST(SolverKernelLanesTest, ColdSolveMatchesScalarColdSolve) {
  Rng rng(808);
  const device::Technology tech = device::defaultTechnology();
  const TestCircuit tc = randomCircuit(rng, tech);
  const SolverKernel kernel(tc.netlist, optionsFor(tech));

  const std::vector<double> unloaded(tc.sources.size(), 0.0);
  std::array<SolverKernel::LaneRequest, kW> requests{};
  for (SolverKernel::LaneRequest& request : requests) {
    request.source_amps = unloaded;
  }
  const std::vector<Solution> got = kernel.solveLanes(requests);
  const Solution want = kernel.solve();
  for (std::size_t lane = 0; lane < kW; ++lane) {
    if (kW == 1) {
      expectIdenticalSolutions(want, got[lane]);
    } else {
      expectEquivalentSolutions(want, got[lane], 1e-6);
    }
  }
}

// A lane solve polls the cancel token at every sweep boundary, like a
// scalar solve, so a serve deadline stops a batched characterization
// mid-scan instead of after it.
TEST(SolverKernelLanesTest, ExpiredTokenStopsLaneSolve) {
  Rng rng(1010);
  const device::Technology tech = device::defaultTechnology();
  const TestCircuit tc = randomCircuit(rng, tech);
  const SolverKernel kernel(tc.netlist, optionsFor(tech));
  const std::vector<std::vector<double>> amps = randomAmps(rng, tc, kW);

  util::CancelToken token;
  token.cancel();
  const util::CancelScope scope(&token);
  EXPECT_THROW(kernel.solveLanes(seededRequests(tc, amps)),
               util::DeadlineExceeded);
}

TEST(SolverKernelLanesTest, RejectsMalformedRequests) {
  Rng rng(909);
  const device::Technology tech = device::defaultTechnology();
  const TestCircuit tc = randomCircuit(rng, tech);
  const SolverKernel kernel(tc.netlist, optionsFor(tech));

  const std::vector<double> unloaded(tc.sources.size(), 0.0);
  EXPECT_THROW(kernel.solveLanes({}), Error);
  std::vector<SolverKernel::LaneRequest> too_many(kW + 1);
  for (SolverKernel::LaneRequest& request : too_many) {
    request.source_amps = unloaded;
  }
  EXPECT_THROW(kernel.solveLanes(too_many), Error);
  const std::vector<double> wrong_amps(tc.sources.size() + 1, 0.0);
  std::array<SolverKernel::LaneRequest, 1> bad{};
  bad[0].source_amps = wrong_amps;
  EXPECT_THROW(kernel.solveLanes(bad), Error);
  const std::vector<double> short_guess(tc.seed.size() - 1, 0.0);
  bad[0].source_amps = unloaded;
  bad[0].initial_guess = &short_guess;
  EXPECT_THROW(kernel.solveLanes(bad), Error);
}

}  // namespace
}  // namespace nanoleak::circuit
