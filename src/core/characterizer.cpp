#include "core/characterizer.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>

#include "core/loading_fixture.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace nanoleak::core {

Characterizer::Characterizer(device::Technology technology,
                             CharacterizationOptions options)
    : technology_(std::move(technology)), options_(std::move(options)) {
  require(!options_.loading_grid.empty() && options_.loading_grid[0] == 0.0,
          "Characterizer: loading grid must start at 0");
  for (std::size_t i = 1; i < options_.loading_grid.size(); ++i) {
    require(options_.loading_grid[i] > options_.loading_grid[i - 1],
            "Characterizer: loading grid must be increasing");
  }
  if (options_.kinds.empty()) {
    const auto kinds = gates::combinationalKinds();
    options_.kinds.assign(kinds.begin(), kinds.end());
  }
}

std::vector<VectorTable> Characterizer::characterizeKind(
    gates::GateKind kind) const {
  return std::move(characterizeKind(kind, {technology_.temperature_k})[0]);
}

std::vector<std::vector<VectorTable>> Characterizer::characterizeKind(
    gates::GateKind kind, const std::vector<double>& temperatures) const {
  require(!temperatures.empty(),
          "Characterizer: need at least one temperature");
  for (std::size_t t = 1; t < temperatures.size(); ++t) {
    require(temperatures[t] > temperatures[t - 1],
            "Characterizer: temperatures must be increasing");
  }
  OBS_SPAN("char.kind", std::string(gates::toString(kind)));
  static const obs::Counter kinds_characterized =
      obs::counter("char.kinds_characterized");
  static const obs::Counter grid_points =
      obs::counter("char.grid_points");
  static const obs::Counter warm_grid_points =
      obs::counter("char.warm_grid_points");
  static const obs::Counter fixture_rebinds =
      obs::counter("thermal.fixture_rebinds");
  kinds_characterized.increment();
  const int pins = gates::inputCount(kind);
  const std::size_t vector_count = std::size_t{1}
                                   << static_cast<std::size_t>(pins);
  const std::vector<double>& grid = options_.loading_grid;
  const std::size_t n = grid.size();
  const auto path = options_.solver_path;

  std::vector<std::vector<VectorTable>> tables(temperatures.size());
  for (std::vector<VectorTable>& per_t : tables) {
    per_t.reserve(vector_count);
  }

  for (std::size_t vec = 0; vec < vector_count; ++vec) {
    std::vector<bool> input_vector(static_cast<std::size_t>(pins));
    for (int k = 0; k < pins; ++k) {
      input_vector[static_cast<std::size_t>(k)] =
          ((vec >> static_cast<std::size_t>(k)) & 1) != 0;
    }
    // One fixture (and one compiled kernel) per (kind, vector), re-bound
    // per temperature.
    device::Technology technology = technology_;
    technology.temperature_k = temperatures[0];
    LoadingFixture fixture(kind, input_vector, technology);
    std::array<bool, 8> vals{};
    for (int k = 0; k < pins; ++k) {
      vals[static_cast<std::size_t>(k)] =
          input_vector[static_cast<std::size_t>(k)];
    }
    const std::span<const bool> levels(vals.data(),
                                       static_cast<std::size_t>(pins));
    const bool out_level = gates::evaluateGate(kind, levels);

    // Warm path only: the row starts (i, 0) at the previous temperature,
    // which seed the same row starts at the next one.
    std::vector<std::vector<double>> prev_t(n);
    std::vector<std::vector<double>> cur_t(n);

    for (std::size_t t = 0; t < temperatures.size(); ++t) {
      if (t > 0) {
        fixture.rebindTemperature(temperatures[t]);
        fixture_rebinds.increment();
      }
      VectorTable table;
      table.isolated_nominal =
          gates::isolatedGateLeakage(kind, levels, fixture.technology());
      table.il_axis = Axis(grid);
      table.ol_axis = Axis(grid);
      table.subthreshold = Grid2D(n, n);
      table.gate = Grid2D(n, n);
      table.btbt = Grid2D(n, n);
      table.pin_current_grid.assign(static_cast<std::size_t>(pins),
                                    Grid2D(n, n));

      // Stores one solved grid point into the table (shared by the scalar
      // scan and the batched scan).
      const auto record = [&](std::size_t i, std::size_t j,
                              const FixtureResult& result) {
        grid_points.increment();
        table.subthreshold.at(i, j) = result.leakage.subthreshold;
        table.gate.at(i, j) = result.leakage.gate;
        table.btbt.at(i, j) = result.leakage.btbt;
        if (i == 0 && j == 0) {
          table.nominal = result.leakage;
          table.pin_current = result.pin_currents_into_net;
        }
        for (int k = 0; k < pins; ++k) {
          table.pin_current_grid[static_cast<std::size_t>(k)].at(i, j) =
              result.pin_currents_into_net[static_cast<std::size_t>(k)];
        }
      };

      if (path == CharacterizationOptions::SolverPath::kBatched) {
        // Lane-parallel scan: up to kBatchLanes adjacent columns of a row
        // solve in SIMD lockstep. Continuation runs column-wise - lane j
        // is seeded from column j of the previous row - so lanes never
        // depend on each other within a batch.
        std::vector<std::vector<double>> prev_row(n);
        std::vector<std::vector<double>> cur_row(n);
        std::vector<double> pin_amps(static_cast<std::size_t>(pins));
        for (std::size_t i = 0; i < n; ++i) {
          // Input loading: magnitude grid[i] split across pins, signed per
          // pin level (into '0' nets, out of '1' nets).
          const double share = grid[i] / pins;
          for (int k = 0; k < pins; ++k) {
            const bool level = input_vector[static_cast<std::size_t>(k)];
            pin_amps[static_cast<std::size_t>(k)] = level ? -share : share;
          }
          for (std::size_t j0 = 0; j0 < n;
               j0 += LoadingFixture::kBatchLanes) {
            const std::size_t lanes =
                std::min(LoadingFixture::kBatchLanes, n - j0);
            std::vector<FixtureBatchPoint> points(lanes);
            for (std::size_t lane = 0; lane < lanes; ++lane) {
              const std::size_t j = j0 + lane;
              points[lane].pin_loading = pin_amps;
              points[lane].output_loading = out_level ? -grid[j] : grid[j];
              if (i > 0 && !prev_row[j].empty()) {
                points[lane].warm_seed = &prev_row[j];
                warm_grid_points.increment();
              }
              points[lane].grid_row = i;
              points[lane].grid_col = j;
            }
            std::vector<FixtureResult> results =
                fixture.solveBatched(points);
            for (std::size_t lane = 0; lane < lanes; ++lane) {
              const std::size_t j = j0 + lane;
              record(i, j, results[lane]);
              cur_row[j] = std::move(results[lane].voltages);
            }
          }
          std::swap(prev_row, cur_row);
        }
        tables[t].push_back(std::move(table));
        continue;
      }

      // Continuation state for kCompiledWarmStart: `prev` is the solution
      // of the previous grid point in scan order, `row_start` the solution
      // at (i-1, 0) - the neighbour a new row starts from.
      std::vector<double> prev;
      std::vector<double> row_start;
      for (std::size_t i = 0; i < n; ++i) {
        // Input loading: magnitude grid[i] split across pins, signed per
        // pin level (into '0' nets, out of '1' nets) - the direction
        // attached gate-tunneling loads actually act.
        const double share = grid[i] / pins;
        for (int k = 0; k < pins; ++k) {
          const bool level = input_vector[static_cast<std::size_t>(k)];
          fixture.setPinLoading(k, level ? -share : share);
        }
        for (std::size_t j = 0; j < n; ++j) {
          // Output loading: sign per output level.
          fixture.setOutputLoading(out_level ? -grid[j] : grid[j]);
          FixtureResult result;
          switch (path) {
            case CharacterizationOptions::SolverPath::kLegacy:
              result = fixture.solve();
              break;
            case CharacterizationOptions::SolverPath::kCompiled:
              result = fixture.solveCompiled();
              break;
            case CharacterizationOptions::SolverPath::kCompiledWarmStart: {
              // Seed from the scan-order neighbour within a temperature;
              // a row start (i, 0) after the first temperature bridges
              // from the same grid point at the previous temperature, so
              // only (0, 0) at the first temperature starts cold.
              const std::vector<double>* warm = nullptr;
              if (j > 0) {
                warm = &prev;
              } else if (t > 0) {
                warm = &prev_t[i];
              } else if (i > 0) {
                warm = &row_start;
              }
              if (warm != nullptr) {
                warm_grid_points.increment();
              }
              result = fixture.solveCompiled(warm);
              prev = std::move(result.voltages);
              if (j == 0) {
                row_start = prev;
                cur_t[i] = prev;
              }
              break;
            }
            case CharacterizationOptions::SolverPath::kBatched:
              break;  // handled above
          }
          record(i, j, result);
        }
      }
      tables[t].push_back(std::move(table));
      std::swap(prev_t, cur_t);
    }
  }
  return tables;
}

LeakageLibrary Characterizer::characterize() const {
  LeakageLibrary::Meta meta;
  meta.technology_name = technology_.nmos.name + "+" + technology_.pmos.name;
  meta.vdd = technology_.vdd;
  meta.temperature_k = technology_.temperature_k;
  LeakageLibrary library(meta);
  for (gates::GateKind kind : options_.kinds) {
    library.insert(kind, characterizeKind(kind));
  }
  return library;
}

std::vector<gates::GateKind> generatorGateKinds() {
  using gates::GateKind;
  return {GateKind::kInv,   GateKind::kBuf,   GateKind::kNand2,
          GateKind::kNand3, GateKind::kNand4, GateKind::kNor2,
          GateKind::kNor3,  GateKind::kAnd2,  GateKind::kOr2,
          GateKind::kXor2,  GateKind::kAoi21, GateKind::kOai21,
          GateKind::kMux2};
}

}  // namespace nanoleak::core
