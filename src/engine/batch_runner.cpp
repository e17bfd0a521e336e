#include "engine/batch_runner.h"

#include <algorithm>
#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/error.h"

namespace nanoleak::engine {

BatchRunner::BatchRunner(BatchOptions options)
    : options_(std::move(options)),
      cache_(options_.cache ? options_.cache
                            : std::make_shared<TableCache>()),
      pool_(options_.threads) {
  require(options_.pattern_chunk >= 1,
          "BatchRunner: pattern_chunk must be >= 1");
}

std::vector<GateVectorResult> BatchRunner::run(const GateVectorSweep& sweep) {
  const std::vector<std::vector<bool>> vectors =
      sweep.vectors.empty() ? allInputVectors(sweep.kind) : sweep.vectors;
  return map<GateVectorResult>(vectors.size(), [&](std::size_t v) {
    const std::vector<bool>& vector = vectors[v];
    core::LoadingAnalyzer analyzer(sweep.kind, vector, sweep.technology);
    GateVectorResult result;
    result.input_vector = vector;
    std::array<bool, 8> vals{};
    for (std::size_t pin = 0; pin < vector.size(); ++pin) {
      vals[pin] = vector[pin];
    }
    result.output_level = gates::evaluateGate(
        sweep.kind, std::span<const bool>(vals.data(), vector.size()));
    result.points.reserve(sweep.loading_amps.size());
    for (double amps : sweep.loading_amps) {
      GateVectorResult::Point point;
      point.amps = amps;
      point.pins.reserve(vector.size());
      for (int pin = 0; pin < static_cast<int>(vector.size()); ++pin) {
        point.pins.push_back(analyzer.pinLoadingEffect(pin, amps));
      }
      point.output = analyzer.outputLoadingEffect(amps);
      result.points.push_back(std::move(point));
    }
    return result;
  });
}

std::vector<CornerResult> BatchRunner::run(const CornerSweep& sweep) {
  require(!sweep.technologies.empty(),
          "BatchRunner: corner sweep needs at least one technology");
  // Technology-major: corner `index` is (index / temps, index % temps).
  const std::size_t temps =
      std::max<std::size_t>(1, sweep.temperatures_k.size());
  const std::size_t corners = sweep.technologies.size() * temps;
  return map<CornerResult>(corners, [&](std::size_t index) {
    CornerResult result;
    result.technology_index = index / temps;
    device::Technology tech = sweep.technologies[result.technology_index];
    if (!sweep.temperatures_k.empty()) {
      tech.temperature_k = sweep.temperatures_k[index % temps];
    }
    result.temperature_k = tech.temperature_k;
    core::LoadingAnalyzer analyzer(sweep.kind, sweep.input_vector, tech);
    result.nominal = analyzer.nominal();
    result.contribution = analyzer.combinedLoadingContribution(
        sweep.input_loading_amps, sweep.output_loading_amps);
    result.effect = analyzer.combinedLoadingEffect(sweep.input_loading_amps,
                                                   sweep.output_loading_amps);
    return result;
  });
}

McBatchResult BatchRunner::run(const McSweep& sweep) {
  OBS_SPAN("engine.mc_sweep");
  const mc::MonteCarloEngine engine(sweep.technology, sweep.sigmas,
                                    sweep.fixture);
  McBatchResult result;
  result.samples = map<mc::McSample>(sweep.samples, [&](std::size_t i) {
    util::pollCancel();
    return engine.runSample(sweep.seed, i);
  });
  result.summary = mc::MonteCarloEngine::summarizeTotals(result.samples);
  return result;
}

void BatchRunner::forEachPattern(
    const core::EstimationPlan& plan,
    const std::vector<std::vector<bool>>& patterns,
    const std::function<void(std::size_t, std::size_t,
                             core::EstimationWorkspace&)>& block,
    const std::function<void(std::size_t, core::EstimationWorkspace&)>&
        walk) {
  OBS_SPAN("engine.run_patterns");
  static const obs::Counter workspaces_created =
      obs::counter("engine.workspaces_created");
  static const obs::Counter workspace_reuses =
      obs::counter("engine.workspace_reuses");

  // One workspace per thread in steady state: workers draw from a shared
  // free list and return their workspace after each chunk. A workspace
  // returned warm seeds the next chunk's delta path - exactness of the
  // delta guarantees the handoff cannot change a bit.
  std::mutex mutex;
  std::vector<std::unique_ptr<core::EstimationWorkspace>> free_list;
  const auto acquire = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!free_list.empty()) {
        auto ws = std::move(free_list.back());
        free_list.pop_back();
        workspace_reuses.increment();
        return ws;
      }
    }
    workspaces_created.increment();
    return std::make_unique<core::EstimationWorkspace>(plan);
  };
  const auto release = [&](std::unique_ptr<core::EstimationWorkspace> ws) {
    const std::lock_guard<std::mutex> lock(mutex);
    free_list.push_back(std::move(ws));
  };

  const std::span<const std::vector<bool>> all(patterns);
  pool_.parallelFor(
      patterns.size(), options_.pattern_chunk,
      [&](std::size_t begin, std::size_t end) {
        auto ws = acquire();
        if (core::favoursBlocks(all.subspan(begin, end - begin))) {
          for (std::size_t i = begin; i < end; i += core::kBlockPatterns) {
            util::pollCancel();
            block(i, std::min(end, i + core::kBlockPatterns), *ws);
          }
        } else {
          for (std::size_t i = begin; i < end; ++i) {
            util::pollCancel();
            walk(i, *ws);
          }
        }
        release(std::move(ws));
      });
}

std::vector<core::EstimateResult> BatchRunner::runPatterns(
    const core::EstimationPlan& plan,
    const std::vector<std::vector<bool>>& patterns) {
  std::vector<core::EstimateResult> out(patterns.size());
  const std::span<const std::vector<bool>> in(patterns);
  const std::span<core::EstimateResult> results(out);
  forEachPattern(
      plan, patterns,
      [&](std::size_t begin, std::size_t end, core::EstimationWorkspace& ws) {
        plan.estimateBlock(in.subspan(begin, end - begin), ws,
                           results.subspan(begin, end - begin));
      },
      [&](std::size_t i, core::EstimationWorkspace& ws) {
        plan.estimateDelta(patterns[i], ws, out[i]);
      });
  return out;
}

std::vector<device::LeakageBreakdown> BatchRunner::runPatternTotals(
    const core::EstimationPlan& plan,
    const std::vector<std::vector<bool>>& patterns) {
  std::vector<device::LeakageBreakdown> out(patterns.size());
  const std::span<const std::vector<bool>> in(patterns);
  const std::span<device::LeakageBreakdown> totals(out);
  forEachPattern(
      plan, patterns,
      [&](std::size_t begin, std::size_t end, core::EstimationWorkspace& ws) {
        plan.estimateBlockTotals(in.subspan(begin, end - begin), ws,
                                 totals.subspan(begin, end - begin));
      },
      [&](std::size_t i, core::EstimationWorkspace& ws) {
        out[i] = plan.estimateDeltaTotal(patterns[i], ws);
      });
  return out;
}

}  // namespace nanoleak::engine
